package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/fsm"
	"naplet/internal/naming"
	"naplet/internal/rudp"
	"naplet/internal/security"
	"naplet/internal/timerwheel"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// Single-layer loops: each drives one package alone through its public
// functions, at the message shapes the workloads use, and returns the mean
// cost of one operation. They run in the traced run only and gate nothing.

var layerSizes = []struct {
	suffix string
	n      int
}{{"100", 100}, {"1k", 1 << 10}, {"64k", 64 << 10}}

// perOp calls fn, which performs k operations, in growing batches until
// budget has elapsed and returns the mean nanoseconds per operation, or the
// first error fn returned.
func perOp(budget time.Duration, k int, fn func() error) (float64, error) {
	var ops int64
	start := time.Now()
	for batch := 1; ; {
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ops += int64(batch) * int64(k)
		el := time.Since(start)
		if el >= budget {
			return float64(el) / float64(ops), nil
		}
		if el < budget/8 {
			batch *= 2
		}
	}
}

// sliceSource is a wire.PeekSource over an in-memory buffer.
type sliceSource struct{ b []byte }

func (s *sliceSource) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

func (s *sliceSource) Peek(n int) ([]byte, error) {
	if n > len(s.b) {
		return s.b, io.EOF
	}
	return s.b[:n], nil
}

func (s *sliceSource) Buffered() int { return len(s.b) }

type captureWriter struct{ b []byte }

func (c *captureWriter) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// layerLoops measures every single-layer metric into out.
func layerLoops(budget time.Duration, out map[string]float64) error {
	// loop records one loop's result under name, scaled (1 for ns, 1e-3 for
	// µs), and keeps the first error.
	var first error
	loop := func(name string, scale float64, k int, fn func() error) {
		if first != nil {
			return
		}
		v, err := perOp(budget, k, fn)
		if err != nil {
			first = fmt.Errorf("%s: %w", name, err)
			return
		}
		out[name] = v * scale
	}
	const ns, us = 1, 1e-3

	payloads := map[int][]byte{}
	for _, s := range layerSizes {
		payloads[s.n] = make([]byte, s.n)
	}

	// wire: encode the way core's writer and flusher do (append to the
	// coalescing buffer, Take it when 32 KiB have gathered), decode with the
	// incremental decoder over a pre-encoded buffer.
	for _, s := range layerSizes {
		p := payloads[s.n]
		fw := wire.NewFrameWriter(io.Discard, 1)
		var spare []byte
		encode := func() error {
			_, err := fw.WriteDataBuffered(p)
			if fw.Buffered() >= 32<<10 {
				spare = fw.Take(spare)
			}
			return err
		}
		loop("wire.encode_ns."+s.suffix, ns, 1, encode)

		frames := 1 + (256<<10)/s.n
		var enc captureWriter
		cw := wire.NewFrameWriter(&enc, 1)
		for i := 0; i < frames; i++ {
			if _, err := cw.WriteData(p); err != nil {
				return err
			}
		}
		var dec wire.FrameDecoder
		decode := func() error {
			src := sliceSource{enc.b}
			for i := 0; i < frames; i++ {
				f, ok, err := dec.Next(&src)
				if err != nil || !ok {
					return fmt.Errorf("frame %d: ok=%v err=%v", i, ok, err)
				}
				wire.PutPayload(f.Payload)
			}
			return nil
		}
		loop("wire.decode_ns."+s.suffix, ns, frames, decode)
		if s.n == 1<<10 && first == nil {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			const passes = 16
			for i := 0; i < passes; i++ {
				for j := 0; j < frames; j++ {
					encode()
				}
				decode()
			}
			runtime.ReadMemStats(&m1)
			out["wire.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(passes*frames)
		}
	}

	id, err := wire.NewConnID()
	if err != nil {
		return err
	}
	ctl := &wire.ControlMsg{
		Type: wire.MsgSuspend, ConnID: id, From: moverAgent, To: anchorAgent, Nonce: 7,
		DataAddr: "127.0.0.1:40000", ControlAddr: "127.0.0.1:40001", LastSeq: 1 << 20, LocEpoch: 9,
	}
	loop("wire.control_codec_ns", ns, 1, func() error {
		_, err := wire.DecodeControlMsg(ctl.Encode())
		return err
	})

	// security: one record per message, as the transport seals a lone frame;
	// the opener is rebuilt per batch because its nonce counter must track
	// the sealer's.
	key := make([]byte, security.KeySize)
	aad := make([]byte, 13)
	for _, s := range layerSizes[1:] {
		p := payloads[s.n]
		sealer, err := security.NewSealer(key)
		if err != nil {
			return err
		}
		dst := make([]byte, 0, s.n+security.RecordOverhead)
		loop("security.seal_ns."+s.suffix, ns, 1, func() error {
			_, err := sealer.Seal(dst[:0], p, aad)
			return err
		})
		records := 1 + (256<<10)/s.n
		sealed := make([][]byte, records)
		if sealer, err = security.NewSealer(key); err != nil {
			return err
		}
		for i := range sealed {
			if sealed[i], err = sealer.Seal(nil, p, aad); err != nil {
				return err
			}
		}
		plain := make([]byte, 0, s.n)
		loop("security.open_ns."+s.suffix, ns, records, func() error {
			opener, err := security.NewOpener(key)
			if err != nil {
				return err
			}
			for _, rec := range sealed {
				if _, err := opener.Open(plain[:0], rec, aad); err != nil {
					return err
				}
			}
			return nil
		})
	}
	secret := make([]byte, 32)
	th := security.TranscriptHash([]byte("dialer hello"), []byte("acceptor hello"))
	loop("security.keyschedule_us", us, 1, func() error {
		security.NewKeySchedule(secret, id[:]).SealKeys(th)
		return nil
	})

	loop("dhkx.exchange_us", us, 1, func() error {
		_, _, err := dhkx.Exchange(id[:])
		return err
	})
	auth, err := dhkx.NewAuthenticator(key)
	if err != nil {
		return err
	}
	signing := ctl.SigningBytes()
	loop("dhkx.sign_verify_ns", ns, 1, func() error {
		if !auth.Verify(signing, auth.Sign(signing)) {
			return fmt.Errorf("tag did not verify")
		}
		return nil
	})

	// rudp: one reliable request/response over loopback UDP.
	echo, err := rudp.Listen("", func(_ *net.UDPAddr, req []byte) []byte { return req }, rudp.Config{})
	if err != nil {
		return err
	}
	defer echo.Close()
	cli, err := rudp.Listen("", func(*net.UDPAddr, []byte) []byte { return nil }, rudp.Config{})
	if err != nil {
		return err
	}
	defer cli.Close()
	req := ctl.Encode()
	loop("rudp.request_rtt_us", us, 1, func() error {
		_, err := cli.Request(context.Background(), echo.Addr().String(), req)
		return err
	})

	svc := naming.NewService()
	if err := svc.Register(anchorAgent, naming.Location{Host: anchorHost, ControlAddr: "127.0.0.1:1", DataAddr: "127.0.0.1:2"}); err != nil {
		return err
	}
	loop("naming.lookup_direct_ns", ns, 1, func() error {
		_, err := svc.Lookup(context.Background(), anchorAgent)
		return err
	})
	cache := naming.NewCache(svc, naming.CacheConfig{})
	loop("naming.lookup_cached_ns", ns, 1, func() error {
		_, err := cache.Lookup(context.Background(), anchorAgent)
		return err
	})

	// fsm: open → suspend → resume → close, eight transitions.
	round := []fsm.Event{
		fsm.AppOpen, fsm.RecvConnectAck, fsm.AppSuspend, fsm.RecvSuspendAck,
		fsm.AppResume, fsm.RecvResumeAck, fsm.AppClose, fsm.RecvCloseAck,
	}
	m := fsm.NewMachine(fsm.Closed)
	loop("fsm.step_ns", ns, len(round), func() error {
		for _, e := range round {
			if _, err := m.Step(e); err != nil {
				return err
			}
		}
		return nil
	})

	wheel := timerwheel.New(0)
	loop("timerwheel.schedule_cancel_ns", ns, 1, func() error {
		wheel.AfterFunc(time.Hour, func() {}).Stop()
		return nil
	})
	wheel.Close()
	if first != nil {
		return first
	}

	// net: the kernel reference, one write per message over raw loopback TCP.
	for _, s := range layerSizes {
		v, err := tcpRef(budget, s.n)
		if err != nil {
			return err
		}
		out["net.tcp_ref_ns_per_msg."+s.suffix] = v
	}
	return transportLoops(budget, out)
}

// tcpRef streams size-byte messages over a loopback TCP pair, one write
// call per message, and returns wall nanoseconds per message.
func tcpRef(budget time.Duration, size int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer w.Close()
	a := <-ch
	if a.err != nil {
		return 0, a.err
	}
	defer a.c.Close()

	done := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, a.c)
		done <- n
	}()
	msg := make([]byte, size)
	var sent int64
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 16; i++ {
			if _, err := w.Write(msg); err != nil {
				return 0, err
			}
			sent++
		}
	}
	w.(*net.TCPConn).CloseWrite()
	if got := <-done; got != sent*int64(size) {
		return 0, fmt.Errorf("tcp reference: %d bytes arrived, %d sent", got, sent*int64(size))
	}
	return float64(time.Since(start)) / float64(sent), nil
}

// rigBudgetFactor stretches a leaf loop's budget for the rig: two goroutines
// and a kernel round trip need longer to settle.
const rigBudgetFactor = 4

// rigPeer is one end of the transport-alone rig: a transport.Manager fed by
// a loopback listener, with no core on top.
type rigPeer struct {
	mgr     *transport.Manager
	ln      net.Listener
	inbound chan *transport.Stream
}

func newRigPeer(name string, cleartext bool) (*rigPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Sized to the streams opened before anyone receives: at most one.
	p := &rigPeer{ln: ln, inbound: make(chan *transport.Stream, 1)}
	p.mgr = transport.NewManager(transport.Config{
		HostName:          name,
		AdvertiseAddr:     ln.Addr().String(),
		DisableEncryption: cleartext,
		HandshakeTimeout:  5 * time.Second,
		Authorize:         func(*wire.HandoffHeader) error { return nil },
		Deliver: func(_ *wire.HandoffHeader, s *transport.Stream) bool {
			p.inbound <- s
			return true
		},
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.mgr.HandleConn(conn)
		}
	}()
	return p, nil
}

func (p *rigPeer) close() {
	p.ln.Close()
	p.mgr.Close()
}

func rigHeader() (*wire.HandoffHeader, error) {
	id, err := wire.NewConnID()
	if err != nil {
		return nil, err
	}
	return &wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: id, TargetAgent: anchorAgent, FromAgent: moverAgent}, nil
}

// rig is a pair of transport managers over loopback.
type rig struct{ a, b *rigPeer }

func newRig(cleartext bool) (*rig, error) {
	g := &rig{}
	var err error
	if g.a, err = newRigPeer("rig-a", cleartext); err != nil {
		return nil, err
	}
	if g.b, err = newRigPeer("rig-b", cleartext); err != nil {
		g.a.close()
		return nil, err
	}
	return g, nil
}

func (g *rig) close() {
	g.a.close()
	g.b.close()
}

// open opens one stream from a to b and returns both ends.
func (g *rig) open() (cs, ss *transport.Stream, err error) {
	hdr, err := rigHeader()
	if err != nil {
		return nil, nil, err
	}
	if cs, err = g.a.mgr.OpenStream(g.b.ln.Addr().String(), hdr, 5*time.Second); err != nil {
		return nil, nil, err
	}
	return cs, <-g.b.inbound, nil
}

// rigCost is what one transport-alone loop cost per op: wall and process
// CPU nanoseconds.
type rigCost struct{ wallNs, cpuNs float64 }

func costSince(start time.Time, cpu0 float64, ops int64) rigCost {
	return rigCost{
		wallNs: float64(time.Since(start)) / float64(ops),
		cpuNs:  (cpuMicros() - cpu0) * 1e3 / float64(ops),
	}
}

// stream pushes size-byte writes through a stream to a reading goroutine.
func (g *rig) stream(budget time.Duration, size int) (rigCost, error) {
	cs, ss, err := g.open()
	if err != nil {
		return rigCost{}, err
	}
	defer ss.Close()
	defer cs.Close()
	got := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, ss)
		got <- n
	}()
	msg := make([]byte, size)
	cpu0, start := cpuMicros(), time.Now()
	var sent int64
	for time.Since(start) < budget {
		for i := 0; i < 1+4096/size; i++ {
			if _, err := cs.Write(msg); err != nil {
				return rigCost{}, err
			}
			sent++
		}
	}
	if err := cs.CloseWrite(); err != nil {
		return rigCost{}, err
	}
	if n := <-got; n != sent*int64(size) {
		return rigCost{}, fmt.Errorf("%d bytes arrived, %d sent", n, sent*int64(size))
	}
	return costSince(start, cpu0, sent), nil
}

// pingPong bounces size-byte messages between the two ends of a stream.
func (g *rig) pingPong(budget time.Duration, size int) (rigCost, error) {
	cs, ss, err := g.open()
	if err != nil {
		return rigCost{}, err
	}
	defer ss.Close()
	defer cs.Close()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(ss, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				done <- err
				return
			}
			if _, err := ss.Write(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	msg, buf := make([]byte, size), make([]byte, size)
	cpu0, start := cpuMicros(), time.Now()
	var n int64
	for time.Since(start) < budget {
		if _, err := cs.Write(msg); err != nil {
			return rigCost{}, err
		}
		if _, err := io.ReadFull(cs, buf); err != nil {
			return rigCost{}, err
		}
		n++
	}
	c := costSince(start, cpu0, n)
	if err := cs.CloseWrite(); err != nil {
		return rigCost{}, err
	}
	return c, <-done
}

// transportLoops drives two transport.Managers over loopback with no core
// on top, one Stream.Write per message at each workload's shape.
func transportLoops(budget time.Duration, out map[string]float64) error {
	budget *= rigBudgetFactor

	clear, err := newRig(true)
	if err != nil {
		return err
	}
	defer clear.close()
	c, err := clear.stream(budget, 100)
	if err != nil {
		return fmt.Errorf("transport rig, small clear: %w", err)
	}
	out["transport.stream_ns_per_msg.small_clear"] = c.wallNs

	enc, err := newRig(false)
	if err != nil {
		return err
	}
	defer enc.close()
	if c, err = enc.stream(budget, 64<<10); err != nil {
		return fmt.Errorf("transport rig, bulk enc: %w", err)
	}
	out["transport.stream_ns_per_msg.bulk_enc"] = c.wallNs

	if c, err = enc.pingPong(budget, 1<<10); err != nil {
		return fmt.Errorf("transport rig, rtt enc: %w", err)
	}
	out["transport.stream_rtt_us.enc"] = c.wallNs / 1e3

	// Warm OpenStream: the transport is up, so this is the mux open alone.
	v, err := perOp(budget, 1, func() error {
		cs, ss, err := enc.open()
		if err != nil {
			return err
		}
		cs.Close()
		return ss.Close()
	})
	if err != nil {
		return fmt.Errorf("transport rig, open stream: %w", err)
	}
	out["transport.open_stream_us"] = v / 1e3

	// Cold Transport(): TCP connect, hello exchange and DH, every time.
	addr := enc.b.ln.Addr().String()
	v, err = perOp(budget, 1, func() error {
		enc.a.mgr.CloseTransports()
		_, err := enc.a.mgr.Transport(addr, 5*time.Second)
		return err
	})
	if err != nil {
		return fmt.Errorf("transport rig, dial: %w", err)
	}
	out["transport.dial_us"] = v / 1e3
	return nil
}
