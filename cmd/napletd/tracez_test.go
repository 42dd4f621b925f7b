package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"naplet"
	"naplet/internal/behaviors"
	"naplet/internal/naming"
	"naplet/internal/obs"
)

// tracezDoc mirrors the /tracez?format=json payload.
type tracezDoc struct {
	Host    string              `json:"host"`
	Dropped uint64              `json:"dropped_spans"`
	Traces  []obs.TraceSnapshot `json:"traces"`
}

func fetchTracez(t *testing.T, addr, query string) tracezDoc {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/tracez?format=json" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez status = %d", resp.StatusCode)
	}
	var doc tracezDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /tracez: %v", err)
	}
	return doc
}

// TestTracezAcrossMigration is the tracing acceptance check: one live
// migration between two in-process nodes must yield a single trace ID whose
// merged span set — stitched from both hosts' /tracez endpoints — contains
// the suspend and transfer spans from the origin, the resume span from the
// destination, and the redirect span from the stationary peer, with
// monotonically consistent phase timings.
func TestTracezAcrossMigration(t *testing.T) {
	svc := naming.NewService()
	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)

	newNode := func(name string) (*naplet.Node, string) {
		met := obs.NewRegistry()
		node, err := naplet.NewNode(naplet.Config{
			Name:      name,
			Directory: naming.Local{Svc: svc},
			Registry:  breg,
			Metrics:   met,
			Logger:    obs.NewLogger(t.Logf, obs.LevelDebug),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv, addr, err := startDebugServer("127.0.0.1:0", node, met, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return node, addr
	}
	n1, addr1 := newNode("h1")
	n2, addr2 := newNode("h2")

	if err := n1.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	// The walker starts on h2 and hops to h1 while holding one
	// connection to the echoer (which stays on h1): the migration's origin
	// spans land on h2, its arrival spans and the stationary peer's
	// redirect span on h1.
	if err := n2.Launch("walker", &behaviors.Roamer{
		Target:     "echoer",
		Docks:      []string{n1.DockAddr(), n2.DockAddr()},
		MsgsPerHop: 1,
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if _, err := svc.Lookup(ctx, "walker"); errors.Is(err, naming.ErrNotFound) {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("walker never finished")
		case <-time.After(5 * time.Millisecond):
		}
	}

	doc1 := fetchTracez(t, addr1, "")
	doc2 := fetchTracez(t, addr2, "")
	if doc1.Host != "h1" || doc2.Host != "h2" {
		t.Fatalf("tracez hosts = %q / %q", doc1.Host, doc2.Host)
	}

	// Merge the two per-host views by trace id.
	type merged struct {
		spans []obs.SpanRecord
		roots []string
	}
	byID := make(map[string]*merged)
	for _, doc := range []tracezDoc{doc1, doc2} {
		for _, ts := range doc.Traces {
			m := byID[ts.ID]
			if m == nil {
				m = &merged{}
				byID[ts.ID] = m
			}
			m.spans = append(m.spans, ts.Spans...)
			m.roots = append(m.roots, ts.Root)
		}
	}

	// Find the h2 -> h1 migration: a single trace id with suspend+transfer
	// spans recorded on h2 and resume+redirect spans recorded on h1.
	want := map[string]string{ // span name -> host it must have run on
		"suspend":  "h2",
		"transfer": "h2",
		"resume":   "h1",
		"redirect": "h1",
	}
	var hit *merged
	var hitID string
	for id, m := range byID {
		have := make(map[string]string)
		for _, sp := range m.spans {
			have[sp.Name] = sp.Host
		}
		ok := true
		for name, host := range want {
			if have[name] != host {
				ok = false
				break
			}
		}
		if ok {
			hit, hitID = m, id
			break
		}
	}
	if hit == nil {
		var ids []string
		for id, m := range byID {
			names := make([]string, 0, len(m.spans))
			for _, sp := range m.spans {
				names = append(names, sp.Host+":"+sp.Name)
			}
			ids = append(ids, id+" ["+strings.Join(names, " ")+"]")
		}
		t.Fatalf("no single trace holds suspend/transfer on h2 and resume/redirect on h1; traces:\n%s",
			strings.Join(ids, "\n"))
	}
	t.Logf("migration trace %s: %d merged spans", hitID, len(hit.spans))

	spanBy := func(name string) obs.SpanRecord {
		t.Helper()
		for _, sp := range hit.spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("trace %s missing span %q", hitID, name)
		return obs.SpanRecord{}
	}

	// Monotonic consistency: no span ends before it starts, and the
	// migration's phases begin in causal order — suspend before the state
	// transfer, the transfer before the destination's resume.
	for _, sp := range hit.spans {
		if sp.End.Before(sp.Start) {
			t.Errorf("span %s on %s ends before it starts (%v .. %v)", sp.Name, sp.Host, sp.Start, sp.End)
		}
	}
	sus, xfer, res := spanBy("suspend"), spanBy("transfer"), spanBy("resume")
	if sus.Start.After(xfer.Start) {
		t.Errorf("suspend (%v) starts after transfer (%v)", sus.Start, xfer.Start)
	}
	if xfer.Start.After(res.Start) {
		t.Errorf("transfer (%v) starts after resume (%v)", xfer.Start, res.Start)
	}

	// The migrate root span lives on the origin and the depart/arrive pair
	// tie the two hosts' span trees together.
	foundRoot := false
	for _, r := range hit.roots {
		if strings.HasPrefix(r, "migrate walker") || r == "depart" {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Errorf("trace roots = %v, want a migrate/depart root", hit.roots)
	}

	// Per-phase durations on each host's snapshot are internally
	// consistent: no phase outlasts the whole trace.
	for _, doc := range []tracezDoc{doc1, doc2} {
		for _, ts := range doc.Traces {
			if ts.ID != hitID {
				continue
			}
			for name, ms := range ts.Phases {
				if ms < 0 {
					t.Errorf("%s phase %q duration %vms < 0", doc.Host, name, ms)
				}
				if ms > ts.DurationMs+0.001 {
					t.Errorf("%s phase %q (%.3fms) outlasts trace (%.3fms)", doc.Host, name, ms, ts.DurationMs)
				}
			}
		}
	}

	// ?n= serves the slowest-N subset, and the text rendering works.
	top := fetchTracez(t, addr2, "&n=1")
	if len(top.Traces) != 1 {
		t.Errorf("/tracez?n=1 returned %d traces", len(top.Traces))
	}
	resp, err := http.Get("http://" + addr2 + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "trace ") || !strings.Contains(string(body), "phase ") {
		t.Errorf("/tracez text rendering:\n%s", body)
	}
}

// validatePromText is a minimal Prometheus text-format validator (the same
// grammar the obs package tests enforce): TYPE comments, legal metric
// names, quoted label values, float sample values.
func validatePromText(t *testing.T, text string) int {
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
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || f[1] != "TYPE" || !validName(f[2]) {
				t.Errorf("line %d: bad comment %q", ln+1, line)
			}
			continue
		}
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
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			t.Errorf("line %d: bad value in %q: %v", ln+1, line, err)
			continue
		}
		samples++
	}
	return samples
}

// TestMetricsPromFormat pins the Prometheus exposition endpoint: a live
// node's /metrics?format=prom output must pass the text-format validator
// and carry the expected content type, including a labeled build.info-style
// gauge.
func TestMetricsPromFormat(t *testing.T) {
	svc := naming.NewService()
	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)
	met := obs.NewRegistry()
	met.Gauge(`build.info{commit="deadbeef",go="go-test"}`).Set(1)
	node, err := naplet.NewNode(naplet.Config{
		Name:      "h1",
		Directory: naming.Local{Svc: svc},
		Registry:  breg,
		Metrics:   met,
		Logger:    obs.NewLogger(t.Logf, obs.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv, addr, err := startDebugServer("127.0.0.1:0", node, met, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Put some traffic through so histograms and counters are non-trivial.
	if err := node.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	if err := node.Launch("pinger", &behaviors.Pinger{Target: "echoer", Count: 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for met.Counter("conn.opens").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinger never opened a connection")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=prom status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	n := validatePromText(t, text)
	if n == 0 {
		t.Fatalf("no samples in prom output:\n%s", text)
	}
	for _, want := range []string{
		"# TYPE conn_opens counter\nconn_opens 1\n",
		`build_info{commit="deadbeef",go="go-test"} 1`,
		"# TYPE build_info gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// The JSON rendering still answers without the format parameter.
	if snap := fetchMetrics(t, addr); snap.Counters["conn.opens"] != 1 {
		t.Errorf("JSON /metrics conn.opens = %d", snap.Counters["conn.opens"])
	}
}
