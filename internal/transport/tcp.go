package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
)

// TCPOptions configures a TCP transport rank.
type TCPOptions struct {
	// Rank is this process's rank in [0, World).
	Rank int
	// World is the group size (must equal the engine's device count).
	World int
	// Coord is the coordinator rendezvous address (host:port). Rank 0
	// binds it; every rank dials it to register and learn the peer
	// address table — the torch.distributed tcp:// init pattern.
	Coord string
	// CoordListener, when non-nil, is a pre-bound listener rank 0 uses
	// instead of binding Coord (lets tests and launchers pick a free
	// port race-free). Ignored on other ranks.
	CoordListener net.Listener
	// BindHost is the host data listeners bind and advertise (default
	// 127.0.0.1; set to a routable interface for multi-machine runs).
	BindHost string
	// MaxFrameBytes rejects frames larger than this (default
	// DefaultMaxFrameBytes).
	MaxFrameBytes int64
}

func (o *TCPOptions) normalize() error {
	if o.World < 2 {
		return fmt.Errorf("transport: world %d (need >= 2 ranks)", o.World)
	}
	if o.Rank < 0 || o.Rank >= o.World {
		return fmt.Errorf("transport: rank %d outside [0, %d)", o.Rank, o.World)
	}
	if o.Coord == "" && (o.Rank != 0 || o.CoordListener == nil) {
		return fmt.Errorf("transport: coordinator address required")
	}
	if o.BindHost == "" {
		o.BindHost = "127.0.0.1"
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return nil
}

// TCP is the wire-backed comm.Transport: one rank per process, one
// duplex connection per peer, length-prefixed payload frames. Send
// serializes on the caller's goroutine (so the caller may recycle the
// payload's buffers as soon as the engine's ownership rules allow) and
// queues the frame to a per-peer writer goroutine; a per-peer reader
// goroutine decodes inbound frames into a buffered inbox. The
// collectives' send-to-all-then-receive-from-all pattern therefore
// never blocks on a socket buffer, and per-pair FIFO order — the only
// ordering the lockstep contract needs — comes from TCP stream order.
//
// Failure model is fail-stop: a broken or protocol-violating
// connection poisons the transport, and the next Recv panics with the
// stored cause. A lockstep collective cannot make progress on partial
// data, and silently returning zero payloads would corrupt training.
type TCP struct {
	rank, world int
	maxFrame    int64
	peers       []*tcpPeer // indexed by rank; peers[rank] == nil

	wgWrite   sync.WaitGroup
	wgRead    sync.WaitGroup
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error

	failMu sync.Mutex
	failed error
}

type tcpPeer struct {
	rank int
	conn net.Conn
	out  chan []byte       // encoded frames, drained by the writer
	in   chan comm.Payload // decoded frames, filled by the reader
}

// outboxDepth bounds queued outbound frames per peer. Lockstep keeps
// at most a few frames in flight per directed pair (a rank cannot
// finish collective k before every peer reached k), so the writer
// never falls far behind; the bound only matters if a peer wedges.
const outboxDepth = 16

// inboxDepth bounds decoded inbound frames per peer; beyond it the
// reader stops draining the socket and TCP flow control pushes back.
const inboxDepth = 16

// NewTCP bootstraps this rank into the group (see bootstrap.go for
// the rendezvous protocol) and returns the connected transport.
func NewTCP(opts TCPOptions) (*TCP, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	conns, err := rendezvous(&opts)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		rank:     opts.Rank,
		world:    opts.World,
		maxFrame: opts.MaxFrameBytes,
		peers:    make([]*tcpPeer, opts.World),
	}
	for peer, conn := range conns {
		if peer == opts.Rank {
			continue
		}
		p := &tcpPeer{
			rank: peer,
			conn: conn,
			out:  make(chan []byte, outboxDepth),
			in:   make(chan comm.Payload, inboxDepth),
		}
		t.peers[peer] = p
		t.wgWrite.Add(1)
		t.wgRead.Add(1)
		go t.writeLoop(p)
		go t.readLoop(p)
	}
	return t, nil
}

// World returns the group size.
func (t *TCP) World() int { return t.world }

// Ranks implements comm.Transport: a TCP process drives its own rank.
func (t *TCP) Ranks() []int { return []int{t.rank} }

// fail poisons the transport with the first error and unblocks every
// receiver by closing the inboxes.
func (t *TCP) fail(err error) {
	t.failMu.Lock()
	first := t.failed == nil
	if first {
		t.failed = err
	}
	t.failMu.Unlock()
	if first {
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}
}

func (t *TCP) failure() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.failed
}

// Send implements comm.Transport. src must be this process's rank.
func (t *TCP) Send(src, dst int, p comm.Payload) {
	if src != t.rank {
		panic(fmt.Sprintf("transport: rank %d asked to send as rank %d", t.rank, src))
	}
	peer := t.peers[dst]
	if peer == nil {
		panic(fmt.Sprintf("transport: rank %d send to self", t.rank))
	}
	t.enqueue(peer, t.encodeFrame(p))
}

// encodeFrame serializes p on the caller's goroutine (u32 body length
// + body) so the payload's buffers are free the moment the send
// returns.
func (t *TCP) encodeFrame(p comm.Payload) []byte {
	frame, err := AppendPayload(make([]byte, 4, 4+64), p)
	if err != nil {
		panic(fmt.Sprintf("transport: rank %d encode: %v", t.rank, err))
	}
	body := int64(len(frame) - 4)
	if body > t.maxFrame {
		panic(fmt.Sprintf("transport: rank %d frame of %d bytes exceeds limit %d: %v", t.rank, body, t.maxFrame, ErrOversized))
	}
	binary.LittleEndian.PutUint32(frame, uint32(body))
	return frame
}

// enqueue pushes a frame onto peer's outbox.
func (t *TCP) enqueue(peer *tcpPeer, frame []byte) {
	select {
	case peer.out <- frame:
	default:
		// Outbox full: the writer is behind (slow peer socket). Block —
		// unless the transport already failed, in which case blocking
		// would hang the worker forever.
		if err := t.failure(); err != nil {
			panic(fmt.Sprintf("transport: rank %d send after failure: %v", t.rank, err))
		}
		peer.out <- frame
	}
}

// Recv implements comm.Transport. dst must be this process's rank.
func (t *TCP) Recv(dst, src int) comm.Payload {
	if dst != t.rank {
		panic(fmt.Sprintf("transport: rank %d asked to receive as rank %d", t.rank, dst))
	}
	peer := t.peers[src]
	if peer == nil {
		panic(fmt.Sprintf("transport: rank %d recv from self", t.rank))
	}
	p, ok := <-peer.in
	if !ok {
		panic(fmt.Sprintf("transport: rank %d recv from rank %d: %v", t.rank, src, t.failure()))
	}
	return p
}

func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wgWrite.Done()
	for frame := range p.out {
		if _, err := p.conn.Write(frame); err != nil {
			t.fail(fmt.Errorf("transport: rank %d write to rank %d: %w", t.rank, p.rank, err))
			return
		}
	}
	// Outbox closed: clean shutdown; half-close so the peer's reader
	// sees EOF once the stream drains.
	if cw, ok := p.conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}

func (t *TCP) readLoop(p *tcpPeer) {
	defer t.wgRead.Done()
	defer close(p.in)
	for {
		body, err := readFrame(p.conn, t.maxFrame)
		if err != nil {
			// EOF is the peer's clean half-close; a read error during our
			// own Close is this side's shutdown unblocking the reader. By
			// the Close contract every in-flight frame was already
			// received, so neither is a failure.
			if err != io.EOF && !t.closing.Load() {
				t.fail(fmt.Errorf("transport: rank %d read from rank %d: %w", t.rank, p.rank, err))
			}
			return
		}
		pl, err := DecodePayload(body)
		if err != nil {
			t.fail(fmt.Errorf("transport: rank %d decode from rank %d: %w", t.rank, p.rank, err))
			return
		}
		p.in <- pl
	}
}

// Close shuts the transport down. Callers must be past their last
// collective (every sent frame has been received); Close flushes
// queued frames, then closes the connections — which is also what
// unblocks this side's readers, so ranks may close in any order
// without waiting on each other. The first wire error, if any, is
// returned — a non-nil result after a completed run means frames were
// lost in shutdown rather than delivered.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		for _, p := range t.peers {
			if p != nil {
				close(p.out)
			}
		}
		t.wgWrite.Wait()
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		t.wgRead.Wait()
		t.closeErr = t.failure()
	})
	return t.closeErr
}
