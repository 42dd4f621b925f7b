package main

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The yardstick: a workload's activities over plain loopback TCP with none
// of the program's code in the way — the "Java socket" column of the paper's
// Table 1 and Fig 9. It has the workload's connection count, message size
// and cipher (AES-256-GCM, sealed and opened by the two ends themselves),
// and what it reports is the process CPU time one of its ops costs.
//
// It exists because of the bench host, which changes speed under the
// benchmark: compute slows by up to a third for minutes at a time, and the
// price of waking a thread on the other CPU flips between two levels within
// seconds (README.md, "Noise"). Raw times repeat within 20-45 % from run to
// run there. So every measured slice is bracketed by two short slices of
// the yardstick, and the gated metrics are the slice's statistic in
// multiples of the yardstick's cost in the same second: those repeat within
// 5-10 %. A change to the program moves them exactly as it moves the raw
// times, because no yardstick code is the program's.
type yard struct {
	size  int
	aead  cipher.AEAD // nil: cleartext
	pairs []yardPair
}

type yardPair struct {
	c, s   net.Conn      // client's end, server's end
	cr, sr *bufio.Reader // and the readers on them
}

func newYard(conns, size int, cleartext bool) (*yard, error) {
	y := &yard{size: size}
	if !cleartext {
		blk, err := aes.NewCipher(make([]byte, 32))
		if err != nil {
			return nil, err
		}
		if y.aead, err = cipher.NewGCM(blk); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			y.close()
			return nil, err
		}
		s, err := ln.Accept()
		if err != nil {
			c.Close()
			y.close()
			return nil, err
		}
		y.pairs = append(y.pairs, yardPair{c: c, s: s, cr: bufio.NewReaderSize(c, 64<<10), sr: bufio.NewReaderSize(s, 64<<10)})
	}
	return y, nil
}

// close closes the connections, which also fails whatever a slice's
// goroutines are blocked in.
func (y *yard) close() {
	if y == nil {
		return
	}
	for _, p := range y.pairs {
		p.c.Close()
		p.s.Close()
	}
}

// yardEnd is one end's buffers: the message it sends, and room to seal and
// to open. The first byte of a message is its flag.
type yardEnd struct {
	aead          cipher.AEAD
	msg, wire, in []byte
	plain, nonce  []byte
}

const yardLast = 1 // flag of the final message of a slice

func (y *yard) end() *yardEnd {
	wireSize := y.size
	if y.aead != nil {
		wireSize += y.aead.Overhead()
	}
	return &yardEnd{
		aead: y.aead,
		msg:  make([]byte, y.size), wire: make([]byte, 0, wireSize), in: make([]byte, wireSize),
		plain: make([]byte, 0, y.size), nonce: make([]byte, 12),
	}
}

func (e *yardEnd) send(w io.Writer, flag byte) error {
	e.msg[0] = flag
	b := e.msg
	if e.aead != nil {
		b = e.aead.Seal(e.wire[:0], e.nonce, e.msg, nil)
	}
	_, err := w.Write(b)
	return err
}

func (e *yardEnd) recv(r io.Reader) (flag byte, err error) {
	if _, err = io.ReadFull(r, e.in); err != nil {
		return 0, err
	}
	b := e.in
	if e.aead != nil {
		if b, err = e.aead.Open(e.plain[:0], e.nonce, e.in, nil); err != nil {
			return 0, err
		}
	}
	return b[0], nil
}

// run starts the slice's goroutines, two per connection, waits for them and
// returns the process CPU time per op, in µs. The first error closes the
// yardstick so that the others end too.
func (y *yard) run(what string, ends func(p yardPair) (client, server func() (ops int64, err error))) (float64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int64
		first error
	)
	cpu0 := cpuMicros()
	for _, p := range y.pairs {
		client, server := ends(p)
		for _, fn := range []func() (int64, error){client, server} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := fn()
				mu.Lock()
				defer mu.Unlock()
				total += n
				if err != nil && first == nil {
					first = err
					y.close()
				}
			}()
		}
	}
	wg.Wait()
	cpu := cpuMicros() - cpu0
	if first != nil {
		return 0, fmt.Errorf("yardstick %s: %w", what, first)
	}
	return cpu / float64(total), nil
}

// stream is the stream slice: on every connection a sender pushes messages
// through a 64 KiB write buffer until the deadline and a sink reads them.
// The result is CPU µs per message.
func (y *yard) stream(dur time.Duration) (float64, error) {
	deadline := time.Now().Add(dur)
	return y.run("stream", func(p yardPair) (client, server func() (int64, error)) {
		client = func() (n int64, err error) {
			e := y.end()
			bw := bufio.NewWriterSize(p.c, 64<<10)
			batch := 1 + 4096/y.size
			for time.Now().Before(deadline) {
				for i := 0; i < batch; i++ {
					if err := e.send(bw, 0); err != nil {
						return n, err
					}
					n++
				}
			}
			if err := e.send(bw, yardLast); err != nil {
				return n, err
			}
			return n + 1, bw.Flush()
		}
		server = func() (int64, error) {
			e := y.end()
			for {
				if flag, err := e.recv(p.sr); err != nil || flag == yardLast {
					return 0, err
				}
			}
		}
		return client, server
	})
}

// echo is the echo slice: a strict ping-pong on every connection. The
// result is CPU µs per round trip.
func (y *yard) echo(dur time.Duration) (float64, error) {
	deadline := time.Now().Add(dur)
	return y.run("echo", func(p yardPair) (client, server func() (int64, error)) {
		client = func() (n int64, err error) {
			e := y.end()
			for {
				var flag byte
				if !time.Now().Before(deadline) {
					flag = yardLast
				}
				if err := e.send(p.c, flag); err != nil {
					return n, err
				}
				if _, err := e.recv(p.cr); err != nil {
					return n, err
				}
				n++
				if flag == yardLast {
					return n, nil
				}
			}
		}
		server = func() (int64, error) {
			e := y.end()
			for {
				flag, err := e.recv(p.sr)
				if err == nil {
					err = e.send(p.s, flag)
				}
				if err != nil || flag == yardLast {
					return 0, err
				}
			}
		}
		return client, server
	})
}

// yards are a workload's yardsticks: one of its own shape for the stream and
// echo slices, one for the control slice — an echo too, a control op being a
// string of round trips, with messages no larger than a control cycle's.
type yards struct {
	shape, control *yard
}

func newYards(w workload) (*yards, error) {
	shape, err := newYard(w.conns, w.size, w.cleartext)
	if err != nil {
		return nil, err
	}
	control, err := newYard(w.conns, min(w.size, maxCycleMsg), w.cleartext)
	if err != nil {
		shape.close()
		return nil, err
	}
	return &yards{shape, control}, nil
}

func (ys *yards) close() {
	if ys != nil {
		ys.shape.close()
		ys.control.close()
	}
}

// cost runs the yardstick slice that goes with a slice of act in a segment
// of length T and returns the CPU µs per op it measured; nil yards cost 0.
func (ys *yards) cost(act int, T time.Duration) (float64, error) {
	if ys == nil {
		return 0, nil
	}
	dur := time.Duration(float64(T) * yardShare)
	switch act {
	case actStream:
		return ys.shape.stream(dur)
	case actEcho:
		return ys.shape.echo(dur)
	default:
		return ys.control.echo(dur)
	}
}
