package experiments

import (
	"fmt"
	"net"

	"naplet/internal/core"
	"naplet/internal/ttcp"
)

// Fig9Point is one message size's throughput for both socket types.
type Fig9Point struct {
	MsgSize    int
	TCPMbps    float64
	NapletMbps float64
}

// Fig9Result reproduces Figure 9: TTCP throughput of NapletSocket versus a
// plain TCP socket across message sizes. The paper's observation: the
// NapletSocket penalty is small (a few percent) and shrinks as messages
// grow.
type Fig9Result struct {
	Points []Fig9Point
	// TotalBytes transferred per measurement.
	TotalBytes int64
}

// Table renders the Figure 9 series.
func (r *Fig9Result) Table() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		ratio := 0.0
		if p.TCPMbps > 0 {
			ratio = 100 * p.NapletMbps / p.TCPMbps
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.MsgSize),
			f1(p.TCPMbps), f1(p.NapletMbps), f1(ratio) + "%",
		}
	}
	return table([]string{"msg size (B)", "TCP (Mb/s)", "NapletSocket (Mb/s)", "ratio"}, rows)
}

// DefaultFig9Sizes are the paper's x-axis decades: 1 B to 100 KB.
func DefaultFig9Sizes() []int { return []int{1, 10, 100, 1000, 10000, 100000} }

// fig9Passes is how many times each throughput point is measured; the
// fastest pass is reported. A single short transfer is dominated by
// whatever the scheduler and the garbage collector happened to do in its
// few tens of milliseconds — peak-of-N is the conventional TTCP report.
const fig9Passes = 3

// bestOf runs measure n times and keeps the fastest result.
func bestOf(n int, measure func() (float64, error)) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		v, err := measure()
		if err != nil {
			return 0, err
		}
		if v > best {
			best = v
		}
	}
	return best, nil
}

// RunFig9 measures TTCP throughput for each message size over both socket
// types. totalBytes bounds each transfer; small messages automatically use
// a proportionally smaller volume so the tiny-message points stay fast.
//
// The NapletSocket side runs with the secure handshake but cleartext data
// records. RunFig9Encrypted measures the AEAD record layer.
func RunFig9(sizes []int, totalBytes int64) (*Fig9Result, error) {
	return runFig9(sizes, totalBytes, false)
}

// RunFig9Encrypted is the Figure 9 workload with the negotiated AEAD record
// layer on: every data frame is sealed with AES-256-GCM on the way out and
// authenticated on the way in. Its series quantifies the encryption cost
// against RunFig9's cleartext numbers.
func RunFig9Encrypted(sizes []int, totalBytes int64) (*Fig9Result, error) {
	return runFig9(sizes, totalBytes, true)
}

func runFig9(sizes []int, totalBytes int64, encrypted bool) (*Fig9Result, error) {
	if len(sizes) == 0 {
		sizes = DefaultFig9Sizes()
	}
	if totalBytes <= 0 {
		totalBytes = 16 << 20
	}
	res := &Fig9Result{TotalBytes: totalBytes}
	for _, size := range sizes {
		vol := totalBytes
		// Keep at most ~64k writes per point so 1-byte messages finish.
		if maxVol := int64(size) * 65536; vol > maxVol {
			vol = maxVol
		}
		tcpMbps, err := bestOf(fig9Passes, func() (float64, error) { return tcpThroughput(size, vol) })
		if err != nil {
			return nil, fmt.Errorf("fig9: tcp size %d: %w", size, err)
		}
		napMbps, err := bestOf(fig9Passes, func() (float64, error) { return napletThroughput(size, vol, encrypted) })
		if err != nil {
			return nil, fmt.Errorf("fig9: naplet size %d: %w", size, err)
		}
		res.Points = append(res.Points, Fig9Point{MsgSize: size, TCPMbps: tcpMbps, NapletMbps: napMbps})
	}
	return res, nil
}

// tcpThroughput runs the TTCP workload over a plain loopback TCP
// connection.
func tcpThroughput(msgSize int, total int64) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	acceptCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	sender, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer sender.Close()
	sink := <-acceptCh
	defer sink.Close()
	resCh := make(chan ttcp.Result, 1)
	errCh := make(chan error, 2)
	go func() {
		r, err := ttcp.Receive(sink, 64<<10, total)
		resCh <- r
		errCh <- err
	}()
	if _, err := ttcp.Send(sender, msgSize, total); err != nil {
		return 0, err
	}
	r := <-resCh
	if err := <-errCh; err != nil {
		return 0, err
	}
	return r.Mbps(), nil
}

// napletThroughput runs the TTCP workload over an established NapletSocket
// connection between two stationary agents.
func napletThroughput(msgSize int, total int64, encrypted bool) (float64, error) {
	// The secure handshake runs either way; cleartext data records are the
	// transport the paper-shaped Figure 9 series is measured over.
	d, err := newDeployment([]string{"h1", "h2"}, func(_ string, cfg *core.Config) {
		cfg.DisableTransportEncryption = !encrypted
	})
	if err != nil {
		return 0, err
	}
	defer d.close()
	client, server, err := d.pair("ttcp-tx", "h1", "ttcp-rx", "h2")
	if err != nil {
		return 0, err
	}
	defer client.Close()
	resCh := make(chan ttcp.Result, 1)
	errCh := make(chan error, 2)
	go func() {
		r, err := ttcp.Receive(server, 64<<10, total)
		resCh <- r
		errCh <- err
	}()
	if _, err := ttcp.Send(client, msgSize, total); err != nil {
		return 0, err
	}
	r := <-resCh
	if err := <-errCh; err != nil {
		return 0, err
	}
	return r.Mbps(), nil
}
