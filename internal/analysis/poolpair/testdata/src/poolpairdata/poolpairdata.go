package poolpairdata

import (
	"sync"

	"tensor"
)

// leak: borrowed, read, never returned to the pool.
func leak() float32 {
	m := tensor.Get(4, 4) // want "never passed to tensor.Put"
	m.Data[0] = 1
	return m.Data[0]
}

// discarded: the only reference to the borrowed matrix is dropped on
// the spot.
func discarded() {
	tensor.Get(2, 2) // want "discarded"
}

// paired: the canonical borrow.
func paired() float32 {
	m := tensor.Get(4, 4)
	m.Data[0] = 1
	v := m.Data[0]
	tensor.Put(m)
	return v
}

// deferredPut covers every return path, early ones included.
func deferredPut(cond bool) int {
	m := tensor.Get(4, 4)
	defer tensor.Put(m)
	if cond {
		return 0
	}
	return int(m.Data[0])
}

// earlyReturn leaks on the cond path: the Put only runs on
// fall-through.
func earlyReturn(cond bool) int {
	m := tensor.Get(4, 4)
	if cond {
		return 0 // want "only runs on the fall-through path"
	}
	tensor.Put(m)
	return 1
}

// returned transfers ownership to the caller — the documented pool
// protocol for kernels that produce pool-backed results.
func returned() *tensor.Matrix {
	return tensor.Get(4, 4)
}

func returnedVar() *tensor.Matrix {
	m := tensor.Get(4, 4)
	m.Data[0] = 2
	return m
}

// lentToCallee passes the matrix to another function: a call borrows
// it, so the caller still owes the Put.
func lentToCallee() {
	m := tensor.Get(4, 4) // want "never passed to tensor.Put"
	consume(m)
}

func consume(m *tensor.Matrix) {
	defer tensor.Put(m)
	m.Data[0] = 3
}

type holder struct{ m *tensor.Matrix }

// storedInField escapes into a longer-lived owner.
func storedInField(h *holder) {
	h.m = tensor.Get(2, 2)
}

// workerPool is a parallel fan-out with per-worker scratch: the
// matrices escape into a slice, closures borrow and return their own.
func workerPool(n int) *tensor.Matrix {
	dst := tensor.Get(n, n)
	partials := make([]*tensor.Matrix, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		partials[w] = tensor.Get(n, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := tensor.Get(1, n)
			partials[w].Data[0] += g.Data[0]
			tensor.Put(g)
		}(w)
	}
	wg.Wait()
	for _, p := range partials {
		dst.AddInPlace(p)
		tensor.Put(p)
	}
	return dst
}

// closureLeak: a closure is its own pairing scope.
func closureLeak() func() {
	return func() {
		g := tensor.Get(1, 1) // want "never passed to tensor.Put"
		g.Data[0] = 1
	}
}

// captured: the closure takes ownership of the capture.
func captured() {
	m := tensor.Get(2, 2)
	release := func() { tensor.Put(m) }
	release()
}

// allowed: a deliberate non-returning borrow, audited in place.
func allowed() {
	//apt:allow poolpair cached for the process lifetime, recycled at shutdown
	m := tensor.Get(2, 2) // want:suppressed "never passed to tensor.Put"
	m.Data[0] = 1
}
