package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// These tests assert structure only — names, units, delivery checks — never
// a timing: the numbers are the benchmark's business, not tier-1's.

type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics compares an emitted metric set with the declared one.
func checkMetrics(t *testing.T, what string, got map[string]value, want []specMetric) {
	t.Helper()
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: declared name %q is not a legal metric name", what, m.Name)
		}
	}
	for name, v := range got {
		unit, ok := declared[name]
		if !ok {
			t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", what, name)
		} else if unit != v.Unit {
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, name, v.Unit, unit)
		}
	}
	var missing []string
	for name := range declared {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s: declared in BENCHMARK.json but not emitted: %v", what, missing)
	}
}

func testOptions(t *testing.T) options {
	return options{seed: 1, segments: 1, segLen: 200 * time.Millisecond, outDir: t.TempDir()}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		if sum := w.share(actStream) + w.share(actEcho) + w.share(actControl) + 6*yardShare; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: slice shares sum to %v", w.name, sum)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runPlain(w, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, w.name, res.Metrics, spec.EndToEnd)
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	w, _ := findWorkload("rpc_echo_enc")
	o := testOptions(t)
	o.trace = true
	res, err := runTraced(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	checkMetrics(t, "traced "+w.name, res.Metrics, spec.PerLayer)
	if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

func TestVerifierRejectsDuplicateReorderedAndCorrupt(t *testing.T) {
	newPair := func() (send, recv *flow) {
		return newFlow(rand.New(rand.NewSource(7)), 100), newFlow(rand.New(rand.NewSource(7)), 100)
	}
	msg := func(f *flow) []byte { return append([]byte(nil), f.next(0)...) }

	send, recv := newPair()
	m0, m1, m2 := msg(send), msg(send), msg(send)
	if _, err := recv.verify(m0); err != nil {
		t.Fatalf("in-order message rejected: %v", err)
	}
	if _, err := recv.verify(m0); err == nil {
		t.Error("duplicated message accepted")
	}
	if _, err := recv.verify(m2); err == nil {
		t.Error("reordered message accepted")
	}
	if _, err := recv.verify(m1); err != nil {
		t.Errorf("next in-order message rejected after the bad ones: %v", err)
	}
	m2[len(m2)-1] ^= 1
	if _, err := recv.verify(m2); err == nil {
		t.Error("corrupt message accepted")
	}
	if _, err := recv.verify(m2[:50]); err == nil {
		t.Error("truncated message accepted")
	}

	// The reassembling receiver sees the same through a byte stream that
	// splits messages anywhere.
	send, recv = newPair()
	stream := append(append(msg(send), msg(send)...), msg(send)...)
	rcv := newReceiver(recv)
	chunk := 37
	read := func(p []byte) (int, error) {
		n := copy(p, stream[:min(chunk, len(stream))])
		stream = stream[n:]
		return n, nil
	}
	if n, _, err := rcv.recv(read, 3); err != nil || n != 3 {
		t.Fatalf("reassembly: %d messages, %v", n, err)
	}
}
