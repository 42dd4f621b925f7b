// Command napletd runs one Naplet agent server: an agent host, a
// NapletSocket controller, and (optionally) a post office, joined to a
// deployment through a shared location service. One napletd can also host
// the location service for the others. Agents migrate to a host's -data
// address: their bundles ride the same shared transport as every
// connection between the two hosts.
//
// A two-host demo on one machine (either host may start first):
//
//	# terminal 1: host h1, runs the location service and an echo agent
//	napletd -name h1 -naming-listen 127.0.0.1:7000 \
//	        -data 127.0.0.1:7001 -launch echoer:echo
//
//	# terminal 2: host h2, joins and launches a roaming client that
//	# migrates to h1 and back while talking to the echo agent
//	napletd -name h2 -naming-peers 127.0.0.1:7000 -data 127.0.0.1:7002 \
//	        -launch walker:roamer:target=echoer,docks=127.0.0.1:7001;127.0.0.1:7002
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"naplet"
	"naplet/internal/behaviors"
	"naplet/internal/naming/cluster"
	"naplet/internal/obs"
	"naplet/internal/relay"
)

type launchList []string

func (l *launchList) String() string     { return strings.Join(*l, " ") }
func (l *launchList) Set(v string) error { *l = append(*l, v); return nil }

var (
	name         = flag.String("name", "host", "host name")
	control      = flag.String("control", "127.0.0.1:0", "control channel (UDP) address")
	data         = flag.String("data", "127.0.0.1:0", "redirector (TCP) address: every stream from other hosts, migrating agents included, arrives here")
	mail         = flag.String("mail", "127.0.0.1:0", "post office (UDP) address")
	namingListen = flag.String("naming-listen", "", "also host a location service node on this address (must appear in -naming-peers)")
	namingPeers  = flag.String("naming-peers", "", "comma-separated location service node addresses: every node, identical on all hosts that set -naming-listen (defaults to -naming-listen alone); any reachable subset on hosts that do not")
	namingShards = flag.Int("naming-shards", 3, "shard count of the location service (identical on all hosts that set -naming-listen)")
	namingRepl   = flag.Int("naming-replication", 2, "replicas per naming shard, at most the node count (identical on all hosts that set -naming-listen)")
	postoffice   = flag.Bool("postoffice", true, "run a post office on this host")
	insecure     = flag.Bool("insecure", false, "disable security (the paper's w/o-security mode)")
	tpEncrypt    = flag.Bool("transport-encrypt", true, "seal shared-transport frames with the negotiated AEAD cipher (secure mode only; false keeps authenticated-handshake cleartext framing)")
	relayAddr    = flag.String("relay-addr", "", "also host a rendezvous relay (TCP) on this address, splicing transport sessions between hosts that cannot dial each other (off when empty)")
	relayVia     = flag.String("relay-via", "", "relay server to keep a registration leg open with; the shared transport also falls back to dialing peers through it when direct dials fail")
	clusterKey   = flag.String("cluster-secret", "", "shared secret authenticating migrating agents between hosts")
	debugAddr    = flag.String("debug-addr", "", "serve /metrics, /connz and pprof on this address (off when empty)")
	logLevel     = flag.String("log-level", "info", "runtime log level: debug, info, warn, error")
	journalDir   = flag.String("journal-dir", "", "checkpoint agent and connection state into a journal under this directory; restarting with the same directory recovers them (off when empty)")
	jrnSync      = flag.String("journal-sync", "interval", "journal fsync policy: always, interval, or never")
	heartbeat    = flag.Duration("heartbeat-interval", 0, "how often peer hosts are probed over the shared transport; a peer silent for three intervals is taken for dead and its connections go through failure recovery (zero = the 15s default)")
	nameTTL      = flag.Duration("name-ttl", 0, "expire location service entries not refreshed within this duration (only with -naming-listen; off when zero)")
	version      = flag.Bool("version", false, "print build information and exit")
	launches     launchList
)

func init() {
	flag.Var(&launches, "launch", "agent to launch, as <id>:<kind>[:<k>=<v>[,<k>=<v>...]]; kinds: echo, pinger, roamer, streamer, sink, maillog (repeatable)")
}

// buildInfo returns the VCS commit this binary was built from (or "unknown")
// and the Go toolchain version.
func buildInfo() (commit, goVersion string) {
	commit, goVersion = "unknown", runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && commit != "unknown" {
		commit += "-dirty"
	}
	return
}

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("napletd: ")

	commit, goVersion := buildInfo()
	if *version {
		fmt.Printf("napletd commit=%s go=%s\n", commit, goVersion)
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("-log-level: %v", err)
	}
	metrics := obs.NewRegistry()
	// A constant-1 gauge whose labels carry the build identity — the
	// standard Prometheus idiom for joining metrics against build metadata.
	metrics.Gauge(fmt.Sprintf("build.info{commit=%q,go=%q}", commit, goVersion)).Set(1)

	cfg := naplet.Config{
		Name:           *name,
		ControlAddr:    *control,
		DataAddr:       *data,
		MailAddr:       *mail,
		Insecure:       *insecure,
		WithPostOffice: *postoffice,
		JournalDir:     *journalDir,
		JournalSync:    *jrnSync,
		Logger:         obs.NewLogger(log.Printf, level),
		Metrics:        metrics,
	}
	if *clusterKey != "" {
		cfg.ClusterSecret = []byte(*clusterKey)
	}
	cfg.Core.DisableTransportEncryption = !*tpEncrypt
	cfg.Core.RelayVia = *relayVia
	cfg.Core.TransportKeepaliveInterval = *heartbeat

	if *relayAddr != "" {
		rs, err := relay.New(*relayAddr, cfg.Logger)
		if err != nil {
			log.Fatalf("starting relay: %v", err)
		}
		defer rs.Close()
		log.Printf("relay listening on %s", rs.Addr())
	}

	tracer := obs.NewTracer(*name)
	cfg.Tracer = tracer

	// Location service: every host is a client of the naming nodes listed
	// in -naming-peers, and a host with -naming-listen is one of them. A
	// lone name server is the one-node layout.
	var peers []string
	for _, p := range strings.Split(*namingPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 && *namingListen != "" {
		peers = []string{*namingListen}
	}
	if len(peers) == 0 {
		log.Fatal("one of -naming-listen or -naming-peers is required")
	}
	var namingNode *cluster.Node
	if *namingListen != "" {
		replication := min(*namingRepl, len(peers))
		layout, err := cluster.BuildLayout(peers, *namingShards, replication)
		if err != nil {
			log.Fatalf("location service layout: %v", err)
		}
		namingNode, err = cluster.NewNode(cluster.NodeConfig{
			Addr:    *namingListen,
			Layout:  layout,
			TTL:     *nameTTL,
			Metrics: metrics,
			Tracer:  tracer,
			Logger:  cfg.Logger,
		})
		if err != nil {
			log.Fatalf("starting location service node: %v", err)
		}
		defer namingNode.Close()
		log.Printf("location service listening on %s (%d shards x %d replicas over %d nodes)",
			namingNode.Addr(), layout.Shards, replication, len(peers))
	}
	log.Printf("connecting to location service %v", peers)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	dir, err := cluster.NewClient(ctx, cluster.ClientConfig{
		Seeds:   peers,
		Metrics: metrics,
	})
	cancel()
	if err != nil {
		log.Fatalf("connecting to location service %v: %v", peers, err)
	}
	defer dir.Close()
	cfg.Directory = dir

	reg := naplet.NewRegistry()
	behaviors.RegisterAll(reg)
	cfg.Registry = reg

	node, err := naplet.NewNode(cfg)
	if err != nil {
		log.Fatalf("starting node: %v", err)
	}
	defer node.Close()
	log.Printf("host %s up: data=%s", node.Name(), node.DockAddr())

	if *debugAddr != "" {
		srv, addr, err := startDebugServer(*debugAddr, node, metrics, namingNode)
		if err != nil {
			log.Fatalf("starting debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug server listening on http://%s", addr)
	}

	recovered := 0
	if *journalDir != "" {
		recovered, err = node.Recover()
		if err != nil {
			log.Fatalf("recovering from journal: %v", err)
		}
		if recovered > 0 {
			log.Printf("recovered %d agent(s) from journal %s", recovered, *journalDir)
		}
	}

	for _, spec := range launches {
		id, b, err := parseLaunch(spec)
		if err != nil {
			log.Fatalf("-launch %q: %v", spec, err)
		}
		if err := node.Launch(id, b); err != nil {
			// A journal-recovered agent is already running; its -launch spec
			// (kept for restart convenience) is then redundant, not fatal.
			if recovered > 0 && strings.Contains(err.Error(), "already resident") {
				log.Printf("agent %s already recovered from journal; skipping -launch", id)
				continue
			}
			log.Fatalf("launching %s: %v", id, err)
		}
		log.Printf("launched agent %s", id)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
}

// parseLaunch parses <id>:<kind>[:<k>=<v>[,...]].
func parseLaunch(spec string) (string, naplet.Behavior, error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 {
		return "", nil, fmt.Errorf("want <id>:<kind>[:<args>]")
	}
	id, kind := parts[0], parts[1]
	args := map[string]string{}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return "", nil, fmt.Errorf("bad argument %q", kv)
			}
			args[k] = v
		}
	}
	atoi := func(s string, def int) int {
		if s == "" {
			return def
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return def
		}
		return n
	}
	switch kind {
	case "echo":
		return id, &behaviors.Echo{MaxConns: atoi(args["maxconns"], 0)}, nil
	case "pinger":
		if args["target"] == "" {
			return "", nil, fmt.Errorf("pinger needs target=<agent>")
		}
		return id, &behaviors.Pinger{
			Target:     args["target"],
			Count:      atoi(args["count"], 5),
			IntervalMs: atoi(args["interval"], 0),
		}, nil
	case "roamer":
		if args["target"] == "" {
			return "", nil, fmt.Errorf("roamer needs target=<agent>")
		}
		var docks []string
		if args["docks"] != "" {
			docks = strings.Split(args["docks"], ";")
		}
		return id, &behaviors.Roamer{
			Target:     args["target"],
			Docks:      docks,
			MsgsPerHop: atoi(args["msgs"], 3),
		}, nil
	case "streamer":
		if args["target"] == "" {
			return "", nil, fmt.Errorf("streamer needs target=<agent>")
		}
		return id, &behaviors.Streamer{
			Target:     args["target"],
			Count:      atoi(args["count"], 100),
			Size:       atoi(args["size"], 8),
			IntervalMs: atoi(args["interval"], 0),
		}, nil
	case "sink":
		return id, &behaviors.Sink{Expect: atoi(args["expect"], 0)}, nil
	case "maillog":
		return id, &behaviors.MailLogger{Expect: atoi(args["expect"], 0)}, nil
	default:
		return "", nil, fmt.Errorf("unknown behaviour kind %q", kind)
	}
}
