package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"naplet/internal/core"
)

// Fig7Result reproduces Figure 7: the message trace demonstrating reliable
// communication — a stationary agent streams numbered messages to a mobile
// agent that migrates mid-stream; messages caught in transit cross inside
// the NapletSocket buffer and are delivered from it after landing, in
// order, exactly once.
type Fig7Result struct {
	Recorder *DeliveryRecorder
	// Total and Buffered count delivered messages and how many of them
	// crossed a migration in the buffer (the light dots).
	Total, Buffered int
	// Migrations is how many hops the mobile agent made.
	Migrations int
}

// Table renders the Figure 7 trace: time, counter, and delivery source per
// message.
func (r *Fig7Result) Table() string {
	return r.Recorder.Render()
}

// Summary is a one-line digest.
func (r *Fig7Result) Summary() string {
	return fmt.Sprintf("%d messages delivered in order exactly once across %d migrations; %d served from the migrated buffer",
		r.Total, r.Migrations, r.Buffered)
}

// RunFig7 runs the Figure 7 workload: total messages sent at the given
// interval, with the mobile receiver migrating at each listed message
// index (the paper: 1 ms interval, migrations around messages 10, 20, 30).
// The receiver reads a shade slower than the sender sends, so migrations
// genuinely catch messages in transmission — the undelivered messages of
// the paper's trace (its messages 7–9 at the first migration point).
func RunFig7(total int, interval time.Duration, migrateAt []int) (*Fig7Result, error) {
	if total <= 0 {
		total = 40
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	if migrateAt == nil {
		migrateAt = []int{10, 20, 30}
	}
	readDelay := interval * 2
	d, err := newDeployment([]string{"h1", "h2", "h3", "h4"}, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()

	// The stationary agent A (sender) dials the mobile agent B (receiver).
	sender, _, err := d.pair("agent-a", "h1", "agent-b", "h2")
	if err != nil {
		return nil, err
	}
	connID := sender.ID()

	rec := NewDeliveryRecorder()
	observer := func(seq uint64, payload []byte, fromBuffer bool) {
		counter := uint64(0)
		if len(payload) >= 8 {
			counter = binary.BigEndian.Uint64(payload)
		}
		src := FromSocket
		if fromBuffer {
			src = FromBuffer
		}
		rec.Record(seq, counter, src)
	}

	var mu sync.Mutex
	moverHost := "h2"
	currentHost := func() string {
		mu.Lock()
		defer mu.Unlock()
		return moverHost
	}
	setHost := func(h string) {
		mu.Lock()
		moverHost = h
		mu.Unlock()
	}

	// attachMover binds to the mover's endpoint at its current host.
	attachMover := func() (*core.Socket, error) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			s, err := d.hosts[currentHost()].ctrl.AgentSocket("agent-b", connID)
			if err == nil {
				s.SetObserver(observer)
				return s, nil
			}
			if time.Now().After(deadline) {
				return nil, err
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Receiver: read all messages, re-attaching after each migration.
	recvErr := make(chan error, 1)
	go func() {
		sock, err := attachMover()
		if err != nil {
			recvErr <- err
			return
		}
		for n := 0; n < total; {
			_, err := sock.ReadMsg()
			if errors.Is(err, core.ErrMigrated) {
				if sock, err = attachMover(); err != nil {
					recvErr <- err
					return
				}
				continue
			}
			if err != nil {
				recvErr <- fmt.Errorf("read %d: %w", n, err)
				return
			}
			n++
			time.Sleep(readDelay)
		}
		recvErr <- nil
	}()

	// Sender: one numbered message per interval; migration triggers at the
	// listed indices.
	migIdx := 0
	hops := []string{"h3", "h4", "h2", "h3", "h4"}
	epoch := uint64(1)
	migrations := 0
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 1; i <= total; i++ {
		var payload [8]byte
		binary.BigEndian.PutUint64(payload[:], uint64(i))
		if err := sender.WriteMsg(payload[:]); err != nil {
			return nil, fmt.Errorf("send %d: %w", i, err)
		}
		if migIdx < len(migrateAt) && i == migrateAt[migIdx] {
			from := currentHost()
			to := hops[migIdx%len(hops)]
			epoch++
			if err := d.migrate("agent-b", from, to, epoch); err != nil {
				return nil, err
			}
			setHost(to)
			migrations++
			migIdx++
		}
		<-tick.C
	}

	select {
	case err := <-recvErr:
		if err != nil {
			return nil, err
		}
	case <-time.After(60 * time.Second):
		return nil, errors.New("fig7: receiver never finished")
	}

	if err := rec.VerifyExactlyOnceInOrder(); err != nil {
		return nil, fmt.Errorf("fig7: reliability property violated: %w", err)
	}
	return &Fig7Result{
		Recorder:   rec,
		Total:      len(rec.Events()),
		Buffered:   len(rec.Buffered()),
		Migrations: migrations,
	}, nil
}
