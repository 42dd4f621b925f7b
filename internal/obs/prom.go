package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format,
// hand-written so the repo stays dependency-free. Registry names use dots
// (and the FSM edge counters embed "->"), so every name is sanitized to
// the [a-zA-Z_:][a-zA-Z0-9_:]* grammar. A registered name may carry a
// trailing {label="value"} block (build.info does); the block is passed
// through after the bare name is sanitized, which is how a label-free
// registry still exposes labeled identity gauges.

// PromName sanitizes a registry metric name into a legal Prometheus
// metric name, preserving a trailing {...} label block if present.
func PromName(name string) string {
	labels := ""
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		labels = name[i:]
		name = name[:i]
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + labels
}

// promSplit separates the sanitized metric name from its label block.
func promSplit(name string) (base, labels string) {
	s := PromName(name)
	if i := strings.IndexByte(s, '{'); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func promFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric of the registry to w in the
// Prometheus text exposition format: counters and gauges as-is,
// histograms as summaries (quantile series plus _sum and _count). A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WritePrometheusSnapshot(w, r.Snapshot(), r.histogramSums())
}

// histogramSums captures each histogram's running sum, which the summary
// rendering needs but HistogramSnapshot (Mean-based) does not carry.
func (r *Registry) histogramSums() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.hists))
	for name, h := range r.hists {
		out[name] = math.Float64frombits(h.sumBits.Load())
	}
	return out
}

// WritePrometheusSnapshot renders a point-in-time snapshot; sums may be
// nil, in which case each histogram's sum is reconstructed as mean*count.
func WritePrometheusSnapshot(w io.Writer, s Snapshot, sums map[string]float64) error {
	if err := writeFamilies(w, "counter", s.Counters, func(v uint64) string { return fmt.Sprint(v) }); err != nil {
		return err
	}
	if err := writeFamilies(w, "gauge", s.Gauges, promFloat); err != nil {
		return err
	}

	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		base, _ := promSplit(name)
		sum, ok := sums[name]
		if !ok {
			sum = h.Mean * float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", base); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", base, q.label, promFloat(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", base, promFloat(sum), base, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeFamilies renders the samples of one metric kind, sorted by name.
// Names sharing a base differ only in their label block and sort together;
// the family's TYPE line is written once, before the first of them.
func writeFamilies[V any](w io.Writer, kind string, m map[string]V, format func(V) string) error {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	typed := ""
	for _, name := range names {
		base, labels := promSplit(name)
		if base != typed {
			typed = base
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, format(m[name])); err != nil {
			return err
		}
	}
	return nil
}
