package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Rendezvous protocol (the torch.distributed tcp:// init pattern):
//
//  1. Every rank binds a data listener on BindHost:0 — the port its
//     peers will dial for the collective mesh.
//  2. Rank 0 binds the coordinator address. Ranks 1..W-1 dial it (with
//     retry, since rank 0 may start late) and send a hello frame:
//     magic, wire version, rank, world, data address. The coordinator
//     validates version/world agreement and rank uniqueness.
//  3. Once all W ranks are registered the coordinator broadcasts the
//     address table and the registration connections close.
//  4. Mesh: rank r dials the data listeners of ranks 0..r-1 (higher
//     dials lower, so exactly one duplex connection exists per pair)
//     and sends a 9-byte mesh hello (magic, version, rank); it accepts
//     connections from ranks r+1..W-1 on its own listener. Data
//     listeners close once the mesh is complete.
//
// Everything is bounded by bootstrapTimeout; a rank that never shows
// up turns into a deadline error, not a hang.

const (
	helloMaxFrame = 1 << 12 // hello/table frames are tiny
	meshHelloLen  = 4 + 1 + 4
	// bootstrapTimeout bounds the whole rendezvous, dial retries
	// included.
	bootstrapTimeout = 30 * time.Second
	// dialRetryBase is the first retry backoff after a refused dial; it
	// doubles per attempt up to 64x.
	dialRetryBase = 10 * time.Millisecond
)

// rendezvous runs the protocol above and returns one connected duplex
// conn per peer rank (nil at the rank's own index), with deadlines
// cleared, ready for the transport's reader/writer goroutines.
//
//apt:allow simclock bootstrap deadlines and dial retry backoff are wall-clock connection management, outside the simulated platform
func rendezvous(o *TCPOptions) (conns []net.Conn, err error) {
	deadline := time.Now().Add(bootstrapTimeout)

	data, err := net.Listen("tcp", net.JoinHostPort(o.BindHost, "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d bind data listener: %w", o.Rank, err)
	}
	defer data.Close()
	setListenerDeadline(data, deadline)

	var table []string
	if o.Rank == 0 {
		table, err = coordinate(o, data.Addr().String(), deadline)
	} else {
		table, err = register(o, data.Addr().String(), deadline)
	}
	if err != nil {
		return nil, err
	}

	conns = make([]net.Conn, o.World)
	defer func() {
		if err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		}
	}()

	// Dial every lower rank.
	for j := 0; j < o.Rank; j++ {
		c, derr := dialRetry(table[j], deadline)
		if derr != nil {
			return nil, fmt.Errorf("transport: rank %d dial rank %d at %s: %w", o.Rank, j, table[j], derr)
		}
		c.SetDeadline(deadline)
		var hello [meshHelloLen]byte
		binary.LittleEndian.PutUint32(hello[0:], wireMagic)
		hello[4] = wireVersion
		binary.LittleEndian.PutUint32(hello[5:], uint32(o.Rank))
		if _, werr := c.Write(hello[:]); werr != nil {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d mesh hello to rank %d: %w", o.Rank, j, werr)
		}
		conns[j] = c
	}

	// Accept every higher rank.
	for need := o.World - 1 - o.Rank; need > 0; need-- {
		c, aerr := data.Accept()
		if aerr != nil {
			return nil, fmt.Errorf("transport: rank %d accept mesh peer: %w", o.Rank, aerr)
		}
		c.SetDeadline(deadline)
		var hello [meshHelloLen]byte
		if _, rerr := io.ReadFull(c, hello[:]); rerr != nil {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d read mesh hello: %w", o.Rank, rerr)
		}
		if m := binary.LittleEndian.Uint32(hello[0:]); m != wireMagic {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d mesh hello magic %#x: %w", o.Rank, m, ErrMalformed)
		}
		if hello[4] != wireVersion {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d mesh peer wire version %d (want %d): %w", o.Rank, hello[4], wireVersion, ErrVersion)
		}
		peer := int(binary.LittleEndian.Uint32(hello[5:]))
		if peer <= o.Rank || peer >= o.World {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d mesh hello from invalid rank %d: %w", o.Rank, peer, ErrMalformed)
		}
		if conns[peer] != nil {
			c.Close()
			return nil, fmt.Errorf("transport: rank %d duplicate mesh hello from rank %d: %w", o.Rank, peer, ErrMalformed)
		}
		conns[peer] = c
	}

	for _, c := range conns {
		if c != nil {
			c.SetDeadline(time.Time{})
		}
	}
	return conns, nil
}

// coordinate is rank 0's side of the rendezvous: accept W-1
// registrations, validate, broadcast the address table.
func coordinate(o *TCPOptions, selfAddr string, deadline time.Time) ([]string, error) {
	coord := o.CoordListener
	if coord == nil {
		var err error
		coord, err = net.Listen("tcp", o.Coord)
		if err != nil {
			return nil, fmt.Errorf("transport: bind coordinator %s: %w", o.Coord, err)
		}
	}
	defer coord.Close()
	setListenerDeadline(coord, deadline)

	table := make([]string, o.World)
	table[0] = selfAddr
	regConns := make([]net.Conn, 0, o.World-1)
	defer func() {
		for _, c := range regConns {
			c.Close()
		}
	}()
	for got := 1; got < o.World; got++ {
		c, err := coord.Accept()
		if err != nil {
			return nil, fmt.Errorf("transport: coordinator accept (%d/%d ranks registered): %w", got, o.World, err)
		}
		c.SetDeadline(deadline)
		rank, addr, err := readHello(c, o.World)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: coordinator registration: %w", err)
		}
		if table[rank] != "" {
			c.Close()
			return nil, fmt.Errorf("transport: duplicate registration for rank %d: %w", rank, ErrMalformed)
		}
		table[rank] = addr
		regConns = append(regConns, c)
	}

	frame := encodeTable(table)
	for _, c := range regConns {
		if _, err := c.Write(frame); err != nil {
			return nil, fmt.Errorf("transport: coordinator broadcast table: %w", err)
		}
	}
	return table, nil
}

// register is rank >0's side: dial the coordinator (retrying while it
// comes up), send the hello, wait for the table.
func register(o *TCPOptions, selfAddr string, deadline time.Time) ([]string, error) {
	c, err := dialRetry(o.Coord, deadline)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d dial coordinator %s: %w", o.Rank, o.Coord, err)
	}
	defer c.Close()
	c.SetDeadline(deadline)

	var e Encoder
	e.U32(wireMagic)
	e.U8(wireVersion)
	e.U32(uint32(o.Rank))
	e.U32(uint32(o.World))
	e.Bytes([]byte(selfAddr))
	frame := make([]byte, 4, 4+len(e.B))
	binary.LittleEndian.PutUint32(frame, uint32(len(e.B)))
	frame = append(frame, e.B...)
	if _, err := c.Write(frame); err != nil {
		return nil, fmt.Errorf("transport: rank %d send hello: %w", o.Rank, err)
	}

	body, err := readFrame(c, helloMaxFrame)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d read address table: %w", o.Rank, err)
	}
	return decodeTable(body, o.World)
}

// readHello reads and validates one registration frame.
func readHello(c net.Conn, world int) (rank int, addr string, err error) {
	body, err := readFrame(c, helloMaxFrame)
	if err != nil {
		return 0, "", err
	}
	d := NewDecoder(body)
	if m := d.U32(); d.Err() == nil && m != wireMagic {
		return 0, "", fmt.Errorf("hello magic %#x: %w", m, ErrMalformed)
	}
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return 0, "", fmt.Errorf("hello wire version %d (want %d): %w", v, wireVersion, ErrVersion)
	}
	r := d.U32()
	w := d.U32()
	addrB := d.TakeBytes()
	if d.Err() != nil {
		return 0, "", d.Err()
	}
	if d.Remaining() != 0 {
		return 0, "", fmt.Errorf("hello has %d trailing bytes: %w", d.Remaining(), ErrTrailing)
	}
	if int(w) != world {
		return 0, "", fmt.Errorf("rank %d joined with world %d (coordinator has %d): %w", r, w, world, ErrMalformed)
	}
	if r == 0 || int(r) >= world {
		return 0, "", fmt.Errorf("registration from invalid rank %d: %w", r, ErrMalformed)
	}
	return int(r), string(addrB), nil
}

func encodeTable(table []string) []byte {
	var e Encoder
	e.U32(wireMagic)
	e.U8(wireVersion)
	e.U32(uint32(len(table)))
	for _, a := range table {
		e.Bytes([]byte(a))
	}
	frame := make([]byte, 4, 4+len(e.B))
	binary.LittleEndian.PutUint32(frame, uint32(len(e.B)))
	return append(frame, e.B...)
}

func decodeTable(body []byte, world int) ([]string, error) {
	d := NewDecoder(body)
	if m := d.U32(); d.Err() == nil && m != wireMagic {
		return nil, fmt.Errorf("transport: table magic %#x: %w", m, ErrMalformed)
	}
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("transport: table wire version %d (want %d): %w", v, wireVersion, ErrVersion)
	}
	w := d.U32()
	if d.Err() == nil && int(w) != world {
		return nil, fmt.Errorf("transport: table world %d (want %d): %w", w, world, ErrMalformed)
	}
	table := make([]string, 0, world)
	for i := 0; i < world; i++ {
		table = append(table, string(d.TakeBytes()))
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("transport: decode address table: %w", d.Err())
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("transport: table has %d trailing bytes: %w", d.Remaining(), ErrTrailing)
	}
	return table, nil
}

// readFrame reads one u32-length-prefixed frame with a size cap. It
// returns io.EOF only when the stream ends cleanly before a frame's
// length; a stream that ends inside a frame is io.ErrUnexpectedEOF.
func readFrame(c net.Conn, max int64) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > max {
		return nil, fmt.Errorf("%d-byte frame (cap %d): %w", n, max, ErrOversized)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// dialRetry dials addr until it succeeds or the deadline passes,
// backing off exponentially from dialRetryBase (capped at 64x) between
// attempts — the peer may simply not have bound its listener yet.
//
//apt:allow simclock dial retry backoff is wall-clock connection management by nature
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := dialRetryBase
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("rendezvous deadline exceeded")
		}
		c, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return c, nil
		}
		sleep := backoff
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		if backoff < dialRetryBase*64 {
			backoff *= 2
		}
	}
}

func setListenerDeadline(l net.Listener, t time.Time) {
	if tl, ok := l.(*net.TCPListener); ok {
		tl.SetDeadline(t)
	}
}
