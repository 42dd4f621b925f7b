package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"naplet/internal/core"
	"naplet/internal/metrics"
	"naplet/internal/rudp"
)

// Ablations of the design choices the paper argues for:
//
//   - Socket handoff (Section 3.4) versus the query-then-connect
//     alternative the paper describes (ask the server which port the agent
//     uses, then dial it): the handoff saves one control round trip per
//     connection setup.
//   - The reliable-UDP control channel (Section 3.5) versus issuing each
//     control request over a fresh TCP connection.
//   - The failure-resume extension: how soon a broken data socket heals.

// AblationHandoffResult quantifies the socket handoff of Section 3.4: the
// query-then-connect alternative pays one extra control round trip (ask
// the server which port the target agent uses) per connection setup, which
// the handoff eliminates.
type AblationHandoffResult struct {
	// OpenMs is the handoff-based connection setup cost (insecure mode, so
	// the key exchange does not drown the protocol cost).
	OpenMs float64
	// SavedRTTMs is the control round trip the handoff saves — measured,
	// not modelled.
	SavedRTTMs float64
	Iters      int
}

// SavedShare is the saved round trip as a fraction of the setup cost.
func (r *AblationHandoffResult) SavedShare() float64 {
	if r.OpenMs+r.SavedRTTMs <= 0 {
		return 0
	}
	return r.SavedRTTMs / (r.OpenMs + r.SavedRTTMs)
}

// Table renders the comparison.
func (r *AblationHandoffResult) Table() string {
	return table([]string{"setup scheme", "mean ms"}, [][]string{
		{"socket handoff (paper §3.4)", f3(r.OpenMs)},
		{"query port, then connect", f3(r.OpenMs + r.SavedRTTMs)},
		{"saved per setup", fmt.Sprintf("%s (%.1f%%)", f3(r.SavedRTTMs), 100*r.SavedShare())},
	})
}

// RunAblationHandoff measures the handoff-based setup cost and the control
// round trip the handoff saves.
func RunAblationHandoff(iters int) (*AblationHandoffResult, error) {
	if iters <= 0 {
		iters = 50
	}
	// Without the key exchange: an X25519 exchange (a few hundred µs) would
	// drown the round trip this ablation is about (~10 µs).
	d, err := newDeployment([]string{"h1", "h2"}, func(_ string, cfg *core.Config) { cfg.Insecure = true })
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.place("opener", "h1"); err != nil {
		return nil, err
	}
	if err := d.place("acceptor", "h2"); err != nil {
		return nil, err
	}
	hs := d.hosts["h2"]
	if _, err := hs.ctrl.ListenAs("acceptor", hs.cred("acceptor")); err != nil {
		return nil, err
	}
	hc := d.hosts["h1"]
	cred := hc.cred("opener")

	// The port-query service the alternative design would need.
	queryEP, err := rudp.Listen("127.0.0.1:0", func(_ *net.UDPAddr, req []byte) []byte {
		return []byte("port=12345") // the port-table lookup the server would do
	}, rudp.Config{})
	if err != nil {
		return nil, err
	}
	defer queryEP.Close()
	queryClient, err := rudp.Listen("127.0.0.1:0", nil, rudp.Config{})
	if err != nil {
		return nil, err
	}
	defer queryClient.Close()

	openS, rttS := metrics.NewSeries(), metrics.NewSeries()
	ctx := context.Background()
	for i := 0; i < iters; i++ {
		start := time.Now()
		conn, err := hc.ctrl.OpenAs("opener", cred, "acceptor")
		if err != nil {
			return nil, err
		}
		openS.AddDuration(time.Since(start))
		conn.Close()

		start = time.Now()
		if _, err := queryClient.Request(ctx, queryEP.Addr().String(), []byte("which port for acceptor?")); err != nil {
			return nil, err
		}
		rttS.AddDuration(time.Since(start))
	}
	return &AblationHandoffResult{
		OpenMs:     openS.Mean(),
		SavedRTTMs: rttS.Mean(),
		Iters:      iters,
	}, nil
}

// AblationControlResult compares the control channel transports.
type AblationControlResult struct {
	RUDPMs    float64
	TCPDialMs float64
	Iters     int
}

// Table renders the comparison.
func (r *AblationControlResult) Table() string {
	return table([]string{"control transport", "request mean ms"}, [][]string{
		{"reliable UDP (paper §3.5)", f3(r.RUDPMs)},
		{"TCP dial per request", f3(r.TCPDialMs)},
	})
}

// RunAblationControl measures one control round trip over the reliable-UDP
// channel against a fresh-TCP-connection-per-request design.
func RunAblationControl(iters int) (*AblationControlResult, error) {
	if iters <= 0 {
		iters = 200
	}
	// Reliable UDP side.
	server, err := rudp.Listen("127.0.0.1:0", func(_ *net.UDPAddr, req []byte) []byte { return req }, rudp.Config{})
	if err != nil {
		return nil, err
	}
	defer server.Close()
	client, err := rudp.Listen("127.0.0.1:0", nil, rudp.Config{})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	// TCP side: a one-shot request/response server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var lenb [4]byte
				if _, err := io.ReadFull(c, lenb[:]); err != nil {
					return
				}
				n := binary.BigEndian.Uint32(lenb[:])
				body := make([]byte, n)
				if _, err := io.ReadFull(c, body); err != nil {
					return
				}
				c.Write(lenb[:])
				c.Write(body)
			}(c)
		}
	}()

	payload := []byte("SUSPEND conn-xyz nonce=7 tag=...")
	rudpS, tcpS := metrics.NewSeries(), metrics.NewSeries()
	ctx := context.Background()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := client.Request(ctx, server.Addr().String(), payload); err != nil {
			return nil, err
		}
		rudpS.AddDuration(time.Since(start))

		start = time.Now()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], uint32(len(payload)))
		if _, err := c.Write(lenb[:]); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := c.Write(payload); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := io.ReadFull(c, lenb[:]); err != nil {
			c.Close()
			return nil, err
		}
		body := make([]byte, binary.BigEndian.Uint32(lenb[:]))
		if _, err := io.ReadFull(c, body); err != nil {
			c.Close()
			return nil, err
		}
		tcpS.AddDuration(time.Since(start))
		c.Close()
	}
	return &AblationControlResult{RUDPMs: rudpS.Mean(), TCPDialMs: tcpS.Mean(), Iters: iters}, nil
}

// AblationFailureResult measures the fault-tolerance extension: time until
// traffic flows again after the data socket is killed.
type AblationFailureResult struct {
	RecoveryMs float64
	Trials     int
}

// Table renders the result.
func (r *AblationFailureResult) Table() string {
	return table([]string{"failure handling", "outcome"}, [][]string{
		{"failure resume", fmt.Sprintf("traffic restored in %.1f ms (mean of %d)", r.RecoveryMs, r.Trials)},
	})
}

// RunAblationFailure kills the data socket under an established connection
// and measures recovery.
func RunAblationFailure(trials int) (*AblationFailureResult, error) {
	if trials <= 0 {
		trials = 5
	}
	rec := metrics.NewSeries()
	for i := 0; i < trials; i++ {
		ms, err := failureRecoveryOnce()
		if err != nil {
			return nil, err
		}
		rec.Add(ms)
	}
	return &AblationFailureResult{RecoveryMs: rec.Mean(), Trials: trials}, nil
}

func failureRecoveryOnce() (float64, error) {
	d, err := newDeployment([]string{"h1", "h2"}, nil)
	if err != nil {
		return 0, err
	}
	defer d.close()
	client, server, err := d.pair("a", "h1", "b", "h2")
	if err != nil {
		return 0, err
	}
	// Prime the connection.
	if err := client.WriteMsg([]byte("pre")); err != nil {
		return 0, err
	}
	if _, err := server.ReadMsg(); err != nil {
		return 0, err
	}
	start := time.Now()
	client.KillDataSocket()
	// Time until a message makes it through again.
	done := make(chan error, 1)
	go func() {
		_, err := server.ReadMsg()
		done <- err
	}()
	if err := client.WriteMsg([]byte("post")); err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}
