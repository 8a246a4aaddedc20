package comm

// Transport is the point-to-point substrate the collectives run on: a
// lockstep message fabric between the ranks of one device group. The
// in-process channel backend (NewChanTransport, the default) keeps
// every rank a goroutine in one address space and moves payloads by
// reference; package transport provides a length-prefixed TCP backend
// where each rank is a separate OS process and payloads cross a real
// wire (DESIGN.md decision 16).
//
// Contract:
//
//   - Ranks map 1:1 to device IDs; World() equals the group size.
//   - Send delivers p from rank src to rank dst (src != dst). Delivery
//     is FIFO per directed (src, dst) pair — the collectives rely on
//     stream order, never on cross-pair ordering.
//   - Send must not block waiting for the receiver to call Recv: the
//     collectives send to every peer before receiving from any, so a
//     rendezvous (unbuffered) transport would deadlock two ranks
//     sending to each other. At least one in-flight payload per
//     directed pair must be absorbed; the lockstep collective pattern
//     bounds the backlog to a few frames.
//   - Recv returns the next payload sent from src to dst, blocking
//     until one arrives.
//   - After Send returns, the transport holds no reference to the
//     payload's backing arrays unless it delivers that exact reference
//     to the receiver (the channel backend does; wire backends must
//     copy/serialize during Send so senders can recycle buffers under
//     the engine's barrier-then-Put ownership rule).
//
// Ownership rule (the comm/transport concurrency contract): all
// collective calls for rank r — and therefore every device clock Charge
// and Spans emission they perform — happen on rank r's worker
// goroutine. A Transport may move bytes on internal goroutines, but it
// must hand decoded payloads back through Recv on the caller's
// goroutine and must never touch the device clocks or the span tracks
// itself. Spans[r] and the clock charge path are single-goroutine by
// design, so no comm state needs a lock.
type Transport interface {
	// World returns the number of ranks.
	World() int
	// Ranks returns the ranks this process drives, ascending: all of
	// them on the in-process channel fabric, one on a wire backend.
	Ranks() []int
	// Send delivers p from rank src to rank dst.
	Send(src, dst int, p Payload)
	// Recv returns the next payload sent from rank src to rank dst.
	Recv(dst, src int) Payload
	// Close releases transport resources. It must only be called after
	// every rank has finished its last collective (the engine's epoch
	// loop ends on a completed collective, so closing between epochs or
	// after training is safe).
	Close() error
}

// chanTransport is the in-process backend: one buffered channel per
// directed rank pair, payloads move by reference. It is the simulated
// cluster — one OS process, one goroutine per rank — and stays the
// default fast path.
type chanTransport struct {
	boxes [][]chan Payload // boxes[src][dst], buffered depth 1
}

// NewChanTransport builds the in-process channel fabric for n ranks.
// Depth-1 buffering is enough to keep the collectives' send-then-recv
// pattern deadlock-free: a send only blocks when the previous payload
// on the same directed pair is still undelivered, and the lockstep
// contract guarantees its receiver is already draining.
func NewChanTransport(n int) Transport {
	t := &chanTransport{boxes: make([][]chan Payload, n)}
	for i := range t.boxes {
		t.boxes[i] = make([]chan Payload, n)
		for j := range t.boxes[i] {
			t.boxes[i][j] = make(chan Payload, 1)
		}
	}
	return t
}

func (t *chanTransport) World() int                   { return len(t.boxes) }
func (t *chanTransport) Send(src, dst int, p Payload) { t.boxes[src][dst] <- p }
func (t *chanTransport) Recv(dst, src int) Payload    { return <-t.boxes[src][dst] }
func (t *chanTransport) Close() error                 { return nil }

func (t *chanTransport) Ranks() []int {
	r := make([]int, len(t.boxes))
	for i := range r {
		r[i] = i
	}
	return r
}
