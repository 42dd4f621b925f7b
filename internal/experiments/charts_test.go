package experiments

import (
	"strings"
	"testing"
	"time"
)

func fig9Fixture() *Fig9Result {
	return &Fig9Result{Points: []Fig9Point{
		{MsgSize: 100, TCPMbps: 1000, NapletMbps: 400},
		{MsgSize: 10000, TCPMbps: 9000, NapletMbps: 5000},
	}}
}

func TestFig9ChartAndCSV(t *testing.T) {
	r := fig9Fixture()
	if out := r.Chart(); !strings.Contains(out, "NapletSocket") || !strings.Contains(out, "log x") {
		t.Fatalf("chart = %q", out)
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "msg_size_bytes,tcp_mbps,naplet_mbps\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "100,1000,400") {
		t.Fatalf("csv rows: %q", csv)
	}
}

func TestFig10ChartsAndCSV(t *testing.T) {
	a := &Fig10aResult{
		Points:       []Fig10aPoint{{Service: 50 * time.Millisecond, Mbps: 60}, {Service: 500 * time.Millisecond, Mbps: 90}},
		BaselineMbps: 100,
	}
	if out := a.Chart(); !strings.Contains(out, "no migration") {
		t.Fatalf("fig10a chart = %q", out)
	}
	if csv := a.CSV(); !strings.Contains(csv, "service_ms,effective_mbps,ceiling_mbps") {
		t.Fatalf("fig10a csv = %q", csv)
	}

	b := &Fig10bResult{Points: []Fig10bPoint{{Hops: 1, SingleMbps: 90, ConcurrentMbps: 80}, {Hops: 2, SingleMbps: 85, ConcurrentMbps: 75}}}
	if out := b.Chart(); !strings.Contains(out, "concurrent migration") {
		t.Fatalf("fig10b chart = %q", out)
	}
	if csv := b.CSV(); !strings.Contains(csv, "hops,single_mbps,concurrent_mbps") {
		t.Fatalf("fig10b csv = %q", csv)
	}
}

func TestFig12ChartsAndCSV(t *testing.T) {
	r := RunFig12([]float64{100, 1000}, []float64{1, 3}, 500, 5)
	if out := r.ChartHigh(); !strings.Contains(out, "12(a)") || !strings.Contains(out, "ub/ua=1.00") {
		t.Fatalf("chart high = %q", out)
	}
	if out := r.ChartLow(); !strings.Contains(out, "12(b)") {
		t.Fatalf("chart low = %q", out)
	}
	if csv := r.CSVHigh(); !strings.Contains(csv, "mean_service_a_ms,ub/ua=1.00,ub/ua=3.00") {
		t.Fatalf("csv high = %q", csv)
	}
	if csv := r.CSVLow(); !strings.HasPrefix(csv, "mean_service_a_ms") {
		t.Fatalf("csv low = %q", csv)
	}
}

func TestFig13ChartAndCSV(t *testing.T) {
	r := RunFig13([]float64{1, 10, 100}, []float64{1, 20})
	if out := r.Chart(); !strings.Contains(out, "r=20") {
		t.Fatalf("chart = %q", out)
	}
	if csv := r.CSV(); !strings.Contains(csv, "exchange_rate,r=1,r=20") {
		t.Fatalf("csv = %q", csv)
	}
}
