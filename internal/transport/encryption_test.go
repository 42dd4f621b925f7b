package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// wireSniffer taps the shared connection (via WrapData) and records every
// byte written to the kernel, so tests can assert what actually crossed
// the wire — ciphertext or cleartext.
type wireSniffer struct {
	mu  sync.Mutex
	out bytes.Buffer
}

func (ws *wireSniffer) wrap(c net.Conn) net.Conn { return &sniffConn{Conn: c, ws: ws} }

func (ws *wireSniffer) contains(sub []byte) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return bytes.Contains(ws.out.Bytes(), sub)
}

type sniffConn struct {
	net.Conn
	ws *wireSniffer
}

func (c *sniffConn) Write(p []byte) (int, error) {
	c.ws.mu.Lock()
	c.ws.out.Write(p)
	c.ws.mu.Unlock()
	return c.Conn.Write(p)
}

func transportInfo(t *testing.T, m *Manager) Info {
	t.Helper()
	infos := m.Infos()
	if len(infos) == 0 {
		t.Fatal("no transports registered")
	}
	return infos[0]
}

func TestEncryptedSessionNegotiatesCipher(t *testing.T) {
	sniff := &wireSniffer{}
	met := obs.NewRegistry()
	a := newTestPeerCfg(t, "a", false, func(cfg *Config) {
		cfg.WrapData = sniff.wrap
		cfg.Metrics = met
	})
	b := newTestPeer(t, "b", false)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	secret := []byte("TOP-SECRET agent payload that must never appear on the wire")
	if _, err := cs.Write(secret); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := ss.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], secret) {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := ss.Write(secret); err != nil {
		t.Fatal(err)
	}
	if n, err = cs.Read(buf); err != nil || !bytes.Equal(buf[:n], secret) {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}

	for _, m := range []*Manager{a.mgr, b.mgr} {
		if info := transportInfo(t, m); info.Cipher != "aes256gcm" {
			t.Fatalf("negotiated cipher %q, want aes256gcm", info.Cipher)
		}
	}
	if sniff.contains(secret) {
		t.Fatal("plaintext payload visible on the wire of an encrypted session")
	}
	if got := met.Counter("transport.encrypted").Value(); got != 1 {
		t.Fatalf("transport.encrypted = %d, want 1", got)
	}
	if got := met.Counter("transport.cleartext").Value(); got != 0 {
		t.Fatalf("transport.cleartext = %d, want 0", got)
	}
}

func TestDisableEncryptionNegotiatesCleartext(t *testing.T) {
	sniff := &wireSniffer{}
	met := obs.NewRegistry()
	noEnc := func(cfg *Config) { cfg.DisableEncryption = true; cfg.Metrics = met }
	a := newTestPeerCfg(t, "a", false, func(cfg *Config) {
		noEnc(cfg)
		cfg.WrapData = sniff.wrap
	})
	b := newTestPeerCfg(t, "b", false, noEnc)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	payload := []byte("cleartext-by-choice payload")
	if _, err := cs.Write(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := ss.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if info := transportInfo(t, a.mgr); info.Cipher != "cleartext" {
		t.Fatalf("cipher %q, want cleartext", info.Cipher)
	}
	if !sniff.contains(payload) {
		t.Fatal("payload not found on the wire of a cleartext session")
	}
	if got := met.Counter("transport.cleartext").Value(); got == 0 {
		t.Fatal("transport.cleartext not counted")
	}
}

// TestOneSidedDisableEncryptionFallsBack: encryption is negotiated, so a
// peer that will not seal (no advertised ciphers) yields a cleartext
// session rather than a failed handshake — tunable, not mandatory.
func TestOneSidedDisableEncryptionFallsBack(t *testing.T) {
	a := newTestPeer(t, "a", false)
	b := newTestPeerCfg(t, "b", false, func(cfg *Config) { cfg.DisableEncryption = true })
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	if _, err := cs.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := ss.Read(buf); err != nil || string(buf[:n]) != "hi" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	for _, m := range []*Manager{a.mgr, b.mgr} {
		if info := transportInfo(t, m); info.Cipher != "cleartext" {
			t.Fatalf("cipher %q, want cleartext", info.Cipher)
		}
	}
}

// TestNegotiatedLimitsThreaded: one side advertising tighter limits must
// bind both sides to the minimum, and the session must still move bulk
// data correctly under the smaller frames and window.
func TestNegotiatedLimitsThreaded(t *testing.T) {
	tight := wire.Limits{MaxPayload: 2048, InitialWindow: 8192}
	a := newTestPeerCfg(t, "a", false, func(cfg *Config) { cfg.Limits = tight })
	b := newTestPeer(t, "b", false)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	for _, m := range []*Manager{a.mgr, b.mgr} {
		lim := transportInfo(t, m).Limits
		if lim.MaxPayload != tight.MaxPayload || lim.InitialWindow != tight.InitialWindow {
			t.Fatalf("negotiated limits %+v, want mins of %+v", lim, tight)
		}
	}

	// Several windows' and frames' worth of data, byte-exact.
	const total = 256 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	go func() {
		cs.Write(payload)
		cs.CloseWrite()
	}()
	got, err := io.ReadAll(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk payload corrupted under tight limits: %d bytes, want %d", len(got), total)
	}
}

// TestBulkSegmentFrames: a data-plane segment — a 64 KiB message and its
// 16-byte frame header — crosses a sealed session between two default peers
// as one mux frame, so the receiver's stream queues it as one segment. A
// peer advertising a 64 KiB MaxPayload (the bound of earlier builds) still
// negotiates, and the same write falls back to two frames.
func TestBulkSegmentFrames(t *testing.T) {
	const seg = 64<<10 + wire.FrameHeaderSize
	for _, tc := range []struct {
		name   string
		limits wire.Limits
		frames []int
	}{
		{"default", wire.Limits{}, []int{seg}},
		{"64KiB-peer", wire.Limits{MaxPayload: 64 << 10, InitialWindow: 1 << 20}, []int{64<<10 - security.RecordOverhead - wire.MuxHeaderSize, 45}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestPeer(t, "a", false)
			b := newTestPeerCfg(t, "b", false, func(cfg *Config) { cfg.Limits = tc.limits })
			cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ss := recvStream(t, b)
			want := wire.DefaultLimits()
			if tc.limits.MaxPayload != 0 {
				want.MaxPayload, want.InitialWindow = tc.limits.MaxPayload, tc.limits.InitialWindow
			}
			for _, m := range []*Manager{a.mgr, b.mgr} {
				if info := transportInfo(t, m); info.Limits.MaxPayload != want.MaxPayload || info.Limits.InitialWindow != want.InitialWindow || info.Cipher != "aes256gcm" {
					t.Fatalf("negotiated %s %+v, want aes256gcm %+v", info.Cipher, info.Limits, want)
				}
			}

			payload := make([]byte, seg)
			for i := range payload {
				payload[i] = byte(i*31 + i>>8)
			}
			if _, err := cs.Write(payload); err != nil {
				t.Fatal(err)
			}
			var got []byte
			var sizes []int
			for deadline := time.Now().Add(5 * time.Second); len(got) < seg; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("received %d of %d bytes", len(got), seg)
				}
				for _, s := range ss.TakeSegments(nil, 1<<20) {
					got = append(got, s...)
					sizes = append(sizes, len(s))
					wire.PutPayload(s)
				}
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("segment corrupted in transit")
			}
			if fmt.Sprint(sizes) != fmt.Sprint(tc.frames) {
				t.Fatalf("segment arrived in frames of %v bytes, want %v", sizes, tc.frames)
			}
		})
	}
}

// downgradeMiddlebox is a hello-rewriting man-in-the-middle: it accepts
// the dialer's connection, splices it to the real peer, and rewrites the
// dialer's fresh-session hello in flight (everything after passes through
// untouched). The transcript tags must catch any such rewrite.
func downgradeMiddlebox(t *testing.T, target string, mutate func(*wire.TransportHello)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer cli.Close()
				srv, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer srv.Close()
				hello, _, err := wire.ReadTransportHello(cli)
				if err != nil {
					return
				}
				mutate(hello)
				if _, err := wire.WriteTransportHello(srv, hello); err != nil {
					return
				}
				done := make(chan struct{}, 2)
				go func() { io.Copy(srv, cli); done <- struct{}{} }()
				go func() { io.Copy(cli, srv); done <- struct{}{} }()
				<-done
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDowngradeAttackFailsHandshake: a middlebox stripping the cipher
// list or capping the version list would steer two encryption-capable
// peers onto cleartext — the transcript tags must fail the handshake on
// both sides instead. No retry, no silent fallback.
func TestDowngradeAttackFailsHandshake(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*wire.TransportHello)
	}{
		{"strip-ciphers", func(h *wire.TransportHello) { h.Ciphers = nil }},
		{"cap-version", func(h *wire.TransportHello) { h.Versions = []uint8{1} }},
		{"raise-limits", func(h *wire.TransportHello) { h.Limits.MaxPayload = wire.MaxMuxPayload }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestPeer(t, "b", false)
			mitm := downgradeMiddlebox(t, b.addr(), tc.mutate)
			a := newTestPeerCfg(t, "a", false, func(cfg *Config) {
				cfg.Limits = wire.Limits{MaxPayload: 4096}
				cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
					return net.DialTimeout("tcp", mitm, timeout)
				}
			})
			if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 3*time.Second); err == nil {
				t.Fatal("handshake survived a rewritten hello")
			}
			// Neither side may have registered a transport: the tampered
			// session must not exist in any mode, encrypted or cleartext.
			for name, m := range map[string]*Manager{"dialer": a.mgr, "acceptor": b.mgr} {
				if tr, _ := m.Counts(); tr != 0 {
					t.Fatalf("%s registered %d transports after tampered handshake", name, tr)
				}
			}
		})
	}
}

// TestEncryptedEmptyAndTinyFrames covers record-layer edge cases end to
// end: zero-byte writes, 1-byte frames, and frames around the bufio
// boundary all seal, open, and deliver intact.
func TestEncryptedEmptyAndTinyFrames(t *testing.T) {
	a := newTestPeer(t, "a", false)
	b := newTestPeer(t, "b", false)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	var want bytes.Buffer
	for _, n := range []int{0, 1, 2, 13, 4095, 4096, 4097} {
		chunk := bytes.Repeat([]byte{byte(n)}, n)
		if _, err := cs.Write(chunk); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		want.Write(chunk)
	}
	if err := cs.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("frame boundary bytes corrupted: got %d bytes, want %d", len(got), want.Len())
	}
}

// TestKeepaliveNegotiatedInterval: the effective probe interval is the
// minimum of both advertisements, so a fast-probing peer pulls a
// slow-probing one down to its cadence (visible as prompt half-open
// detection), and the negotiated value lands in the session limits.
func TestKeepaliveNegotiatedInterval(t *testing.T) {
	a := newTestPeerCfg(t, "a", false, func(cfg *Config) {
		cfg.KeepaliveInterval = 50 * time.Millisecond
		cfg.KeepaliveTimeout = 10 * time.Second
	})
	b := newTestPeerCfg(t, "b", false, func(cfg *Config) {
		cfg.KeepaliveInterval = 10 * time.Second
	})
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	for name, m := range map[string]*Manager{"a": a.mgr, "b": b.mgr} {
		if lim := transportInfo(t, m).Limits; lim.KeepaliveMs != 50 {
			t.Fatalf("%s negotiated keepalive %dms, want 50", name, lim.KeepaliveMs)
		}
	}
	// The slow side (10s configured) must probe at the negotiated 50ms:
	// its pings keep the fast side's lastRead fresh well within a second.
	deadline := time.Now().Add(3 * time.Second)
	for {
		info := transportInfo(t, b.mgr)
		if !info.LastKeepalive.IsZero() && time.Since(info.LastKeepalive) < time.Second && time.Since(info.Opened) > 500*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow side did not see negotiated-cadence probes (last inbound %v)", time.Since(info.LastKeepalive))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
