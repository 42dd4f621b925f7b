package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"naplet"
	"naplet/internal/naming/cluster"
	"naplet/internal/obs"
)

// startDebugServer exposes the node's observability surface over HTTP:
//
//	/metrics  — the registry snapshot as JSON, or Prometheus text
//	            exposition format with ?format=prom
//	/connz    — the per-connection state table (text, or JSON with
//	            ?format=json), including each shared transport's state,
//	            last-keepalive time, and flight-recorder events
//	/namez    — the naming control plane: hosted cluster shard replicas
//	            (role, term, leader, record counts, staleness) and the
//	            controller's location-cache hit rate (text, ?format=json)
//	/tracez   — recent migration/connection traces with per-phase
//	            durations (text, ?format=json, ?n=<k> for the k slowest)
//	/debug/pprof/ — the standard net/http/pprof handlers
//
// cnode is the naming cluster node hosted by this process, or nil when the
// host is not part of the naming control plane.
//
// It returns the running server and its bound address.
func startDebugServer(addr string, node *naplet.Node, reg *obs.Registry, cnode *cluster.Node) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/connz", func(w http.ResponseWriter, r *http.Request) {
		infos := node.Controller().ConnInfos()
		transports := node.Controller().TransportInfos()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Conns      any `json:"conns"`
				Transports any `json:"transports"`
			}{infos, transports})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d connections at %s\n\n", len(infos), time.Now().Format(time.RFC3339))
		fmt.Fprintf(w, "%-32s %-12s %-12s %-14s %8s %8s %8s %9s %9s %-32s %s\n",
			"ID", "LOCAL", "REMOTE", "STATE", "SENDSEQ", "RECVSEQ", "BUFMSGS", "BUFBYTES", "LOGBYTES", "TRANSPORT", "LATCHES")
		for _, in := range infos {
			fmt.Fprintf(w, "%-32s %-12s %-12s %-14s %8d %8d %8d %9d %9d %-32s %s\n",
				in.ID, in.LocalAgent, in.RemoteAgent, in.State,
				in.NextSendSeq, in.LastEnqueued, in.RecvBufferedMsgs, in.RecvBufferedBytes, in.SendLogBytes,
				in.Transport, in.Latches)
		}
		now := time.Now()
		fmt.Fprintf(w, "\n%d shared transports\n\n", len(transports))
		fmt.Fprintf(w, "%-32s %-12s %-22s %-8s %-6s %-10s %-24s %7s %8s %-10s %-18s %-10s\n",
			"ID", "PEER", "ADDR", "ROLE", "RELAY", "CIPHER", "LIMITS", "STREAMS", "RTT", "AGE", "STATE", "LAST-KA")
		for _, tr := range transports {
			role := "accept"
			if tr.Dialer {
				role = "dial"
			}
			via := "-"
			if tr.Relayed {
				via = "relay"
			}
			rtt := "-"
			if tr.RTT > 0 {
				rtt = tr.RTT.Round(100 * time.Microsecond).String()
			}
			lastKA := "-"
			if !tr.LastKeepalive.IsZero() {
				lastKA = now.Sub(tr.LastKeepalive).Round(time.Millisecond).String() + " ago"
			}
			limits := fmt.Sprintf("p%d/w%d/ka%dms",
				tr.Limits.MaxPayload, tr.Limits.InitialWindow, tr.Limits.KeepaliveMs)
			fmt.Fprintf(w, "%-32s %-12s %-22s %-8s %-6s %-10s %-24s %7d %8s %-10s %-18s %-10s\n",
				tr.ID, tr.PeerHost, tr.PeerAddr, role, via, tr.Cipher, limits, tr.Streams, rtt,
				time.Since(tr.Opened).Round(time.Second), tr.State, lastKA)
			for _, ev := range tr.Events {
				fmt.Fprintf(w, "    %s\n", ev)
			}
		}
	})
	mux.HandleFunc("/namez", func(w http.ResponseWriter, r *http.Request) {
		var shards []cluster.ShardInfo
		if cnode != nil {
			shards = cnode.Infos()
		}
		cacheStats, cacheOn := node.Controller().LocationCacheStats()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Shards        any  `json:"shards"`
				CacheEnabled  bool `json:"cache_enabled"`
				LocationCache any  `json:"location_cache"`
			}{shards, cacheOn, cacheStats})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cnode == nil {
			fmt.Fprintf(w, "no naming cluster node hosted here at %s\n", time.Now().Format(time.RFC3339))
		} else {
			fmt.Fprintf(w, "%d naming shard replicas at %s\n\n", len(shards), time.Now().Format(time.RFC3339))
			fmt.Fprintf(w, "%-6s %-9s %6s %-22s %8s %9s %7s %9s %-32s\n",
				"SHARD", "ROLE", "TERM", "LEADER", "RECORDS", "MAXEPOCH", "SYNCED", "AGE-MS", "REPLICAS")
			for _, in := range shards {
				age := "-"
				if in.Role == "follower" {
					age = fmt.Sprintf("%.1f", in.Age)
				}
				fmt.Fprintf(w, "%-6d %-9s %6d %-22s %8d %9d %7t %9s %-32s\n",
					in.Shard, in.Role, in.Term, in.Leader,
					in.Records, in.MaxEpoch, in.Synced, age, strings.Join(in.Replicas, ","))
			}
		}
		fmt.Fprintf(w, "\nlocation cache (%d entries)\n\n", cacheStats.Entries)
		fmt.Fprintf(w, "%10s %10s %13s %10s %9s\n", "HITS", "MISSES", "INVALIDATIONS", "ADVANCES", "HIT-RATE")
		fmt.Fprintf(w, "%10d %10d %13d %10d %8.1f%%\n",
			cacheStats.Hits, cacheStats.Misses, cacheStats.Invalidations,
			cacheStats.Advances, cacheStats.HitRate*100)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		tr := node.Tracer()
		traces := tr.Snapshot()
		if nstr := r.URL.Query().Get("n"); nstr != "" {
			n, err := strconv.Atoi(nstr)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			traces = tr.Slowest(n)
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Host    string              `json:"host"`
				Dropped uint64              `json:"dropped_spans"`
				Traces  []obs.TraceSnapshot `json:"traces"`
			}{tr.Host(), tr.Dropped(), traces})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d traces on %s at %s (%d spans dropped)\n",
			len(traces), tr.Host(), time.Now().Format(time.RFC3339), tr.Dropped())
		for _, ts := range traces {
			fmt.Fprintf(w, "\ntrace %s  root=%s  start=%s  duration=%.3fms\n",
				ts.ID, ts.Root, ts.Start.Format("15:04:05.000000"), ts.DurationMs)
			phases := make([]string, 0, len(ts.Phases))
			for name := range ts.Phases {
				phases = append(phases, name)
			}
			sort.Strings(phases)
			for _, name := range phases {
				fmt.Fprintf(w, "  phase %-14s %10.3fms\n", name, ts.Phases[name])
			}
			for _, sp := range ts.Spans {
				fmt.Fprintf(w, "  span  %-14s %10.3fms  host=%s  [%s<-%s]\n",
					sp.Name, sp.DurationMs(), sp.Host, sp.SpanHex, sp.ParentHex)
				for _, note := range sp.Notes {
					fmt.Fprintf(w, "        note: %s\n", note)
				}
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "napletd %s debug surface\n\n/metrics (?format=prom)\n/connz (?format=json)\n/namez (?format=json)\n/tracez (?format=json&n=5)\n/debug/pprof/\n", node.Name())
	})

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
