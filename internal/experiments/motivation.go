package experiments

import (
	"context"
	"fmt"
	"time"

	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/postoffice"
)

// MotivationResult quantifies the paper's introductory argument: for
// closely cooperating agents, a synchronous transient channel beats the
// mailbox-based asynchronous persistent mechanism. It measures one
// request/reply round trip between two agents through both mechanisms.
//
// The asynchronous path also gives the sender no delivery feedback — "it
// is hard for the sender agent to determine whether and when the receiver
// gets the message" — which is qualitative; the latency gap below is the
// measurable half of the argument.
type MotivationResult struct {
	NapletRTTMs  float64
	MailboxRTTMs float64
	Iters        int
}

// Table renders the comparison.
func (r *MotivationResult) Table() string {
	factor := 0.0
	if r.NapletRTTMs > 0 {
		factor = r.MailboxRTTMs / r.NapletRTTMs
	}
	return table([]string{"mechanism", "request/reply RTT (ms)"}, [][]string{
		{"NapletSocket (synchronous transient)", f3(r.NapletRTTMs)},
		{"PostOffice mailbox (asynchronous persistent)", f3(r.MailboxRTTMs)},
		{"ratio", fmt.Sprintf("%.1fx", factor)},
	})
}

// RunMotivation measures both mechanisms' round trips.
func RunMotivation(iters int) (*MotivationResult, error) {
	if iters <= 0 {
		iters = 200
	}
	res := &MotivationResult{Iters: iters}

	// Synchronous: one NapletSocket round trip against an echoing peer.
	d, err := newDeployment([]string{"h1", "h2"}, nil)
	if err != nil {
		return nil, err
	}
	client, server, err := d.pair("req", "h1", "rep", "h2")
	if err != nil {
		d.close()
		return nil, err
	}
	go func() {
		for {
			msg, err := server.ReadMsg()
			if err != nil {
				return
			}
			if err := server.WriteMsg(msg); err != nil {
				return
			}
		}
	}()
	sock := metrics.NewSeries()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := client.WriteMsg([]byte("req")); err != nil {
			d.close()
			return nil, err
		}
		if _, err := client.ReadMsg(); err != nil {
			d.close()
			return nil, err
		}
		sock.AddDuration(time.Since(start))
	}
	res.NapletRTTMs = sock.Mean()
	d.close()

	// Asynchronous: the request goes to the replier's mailbox (location
	// lookup + office delivery), the replier mails back, the requester
	// receives — the mailbox mechanism of Section 1/6.
	svc := naming.NewService()
	officeA, err := postoffice.New("h1", svc, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer officeA.Close()
	officeB, err := postoffice.New("h2", svc, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer officeB.Close()
	if err := svc.Register("req", naming.Location{Host: "h1", MailAddr: officeA.Addr()}); err != nil {
		return nil, err
	}
	if err := svc.Register("rep", naming.Location{Host: "h2", MailAddr: officeB.Addr()}); err != nil {
		return nil, err
	}
	reqBox := officeA.Open("req")
	repBox := officeB.Open("rep")
	ctx := context.Background()
	go func() {
		for {
			msg, err := repBox.Receive(ctx)
			if err != nil {
				return
			}
			if err := officeB.Send(ctx, "rep", "req", msg.Body); err != nil {
				return
			}
		}
	}()
	mail := metrics.NewSeries()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := officeA.Send(ctx, "req", "rep", []byte("req")); err != nil {
			return nil, err
		}
		if _, err := reqBox.Receive(ctx); err != nil {
			return nil, err
		}
		mail.AddDuration(time.Since(start))
	}
	res.MailboxRTTMs = mail.Mean()
	return res, nil
}
