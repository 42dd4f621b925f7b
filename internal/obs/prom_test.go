package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"agent.migrations":                     "agent_migrations",
		"fsm.transition.ESTABLISHED->SUS_SENT": "fsm_transition_ESTABLISHED__SUS_SENT",
		"rudp:retx":                            "rudp:retx",
		"9lives":                               "_9lives",
		`build.info{commit="abc",go="go1.22"}`: `build_info{commit="abc",go="go1.22"}`,
		"weird{unterminated":                   "weird_unterminated",
		"suspend.ms":                           "suspend_ms",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// ValidatePromText is a minimal Prometheus text-exposition validator: every
// non-empty line must be a well-formed comment or a sample whose metric name
// matches the grammar, labels (if any) are quoted key=value pairs, and the
// value parses as a float. It returns the number of samples seen.
func ValidatePromText(t *testing.T, text string) int {
	t.Helper()
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !ok {
				return false
			}
		}
		return true
	}
	samples := 0
	types := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || f[1] != "TYPE" || !validName(f[2]) {
				t.Errorf("line %d: bad comment %q", ln+1, line)
				continue
			}
			switch f[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Errorf("line %d: bad type %q", ln+1, f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		// name[{labels}] value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Errorf("line %d: unbalanced braces %q", ln+1, line)
				continue
			}
			name, labels, rest = rest[:i], rest[i+1:j], rest[j+1:]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			name, rest = rest[:i], rest[i:]
		}
		if !validName(name) {
			t.Errorf("line %d: bad metric name %q", ln+1, name)
			continue
		}
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !validName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Errorf("line %d: bad label %q", ln+1, pair)
				}
			}
		}
		val := strings.TrimSpace(rest)
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: bad value %q: %v", ln+1, val, err)
			continue
		}
		// A sample must be typed under its family name (summary samples may
		// carry _sum/_count suffixes).
		family := name
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[family]; !ok {
				t.Errorf("line %d: sample %q without TYPE line", ln+1, name)
			}
		}
		samples++
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("fsm.transition.ESTABLISHED->SUS_SENT").Add(3)
	r.Counter("agent.migrations").Inc()
	r.Gauge(`build.info{commit="abc123",go="go1.22.1"}`).Set(1)
	r.Func("agent.resident", func() float64 { return 2 })
	h := r.Histogram("suspend.ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	n := ValidatePromText(t, text)
	// 2 counters + 2 gauges + (3 quantiles + sum + count) = 9 samples.
	if n != 9 {
		t.Fatalf("samples = %d, want 9\n%s", n, text)
	}
	for _, want := range []string{
		"# TYPE agent_migrations counter\nagent_migrations 1\n",
		"# TYPE fsm_transition_ESTABLISHED__SUS_SENT counter\nfsm_transition_ESTABLISHED__SUS_SENT 3\n",
		"# TYPE build_info gauge\nbuild_info{commit=\"abc123\",go=\"go1.22.1\"} 1\n",
		"# TYPE suspend_ms summary\n",
		"suspend_ms{quantile=\"0.5\"}",
		"suspend_ms_count 100\n",
		"suspend_ms_sum 5050\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}

	// Nil registry writes nothing.
	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", buf.String(), err)
	}
}

// TestWritePrometheusTransportSessionCounters pins the exposition names of
// the transport-plane session counters: dotted registry names map to valid
// underscore-separated Prometheus families, and zero-valued counters are
// still exported (a cleartext flat line at 0 is the signal that every
// session negotiated encryption).
func TestWritePrometheusTransportSessionCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport.encrypted").Add(2)
	r.Counter("transport.cleartext")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if n := ValidatePromText(t, text); n != 2 {
		t.Fatalf("samples = %d, want 2\n%s", n, text)
	}
	for _, want := range []string{
		"# TYPE transport_encrypted counter\ntransport_encrypted 2\n",
		"# TYPE transport_cleartext counter\ntransport_cleartext 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
}

func TestWritePrometheusSnapshotFallbackSum(t *testing.T) {
	// Without explicit sums, a histogram's _sum reconstructs as mean*count.
	s := Snapshot{Histograms: map[string]HistogramSnapshot{
		"x.ms": {Count: 4, Mean: 2.5, P50: 2, P95: 4, P99: 4},
	}}
	var buf bytes.Buffer
	if err := WritePrometheusSnapshot(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_ms_sum 10\n") {
		t.Fatalf("output = %s", buf.String())
	}
	ValidatePromText(t, buf.String())
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter(fmt.Sprintf("c%d.total", i)).Add(uint64(i))
	}
	for i := 0; i < 10; i++ {
		h := r.Histogram(fmt.Sprintf("h%d.ms", i))
		for j := 0; j < 100; j++ {
			h.Observe(float64(j))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.WritePrometheus(&bytes.Buffer{})
	}
}
