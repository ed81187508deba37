package core

import "sync"

// DefaultStreamBuffer is the ResultStream capacity when Subscribe is
// given a non-positive buffer size.
const DefaultStreamBuffer = 1024

// ResultStream is a bounded cursor over a kernel's emitted results — the
// subscription half of the streaming API. The kernel pushes every result
// it emits (before fade-pruning, so a stream observes the complete
// stream, unlike the Results snapshot); consumers advance the cursor with
// Next or TryNext from any goroutine. The buffer is a fixed ring: when a
// consumer falls more than the buffer behind, the oldest undelivered
// results are dropped and counted (Dropped), never blocking the kernel —
// backpressure must not stall a touch pipeline shared with other
// subscribers.
type ResultStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Result // ring storage
	head    int      // index of the oldest buffered result
	count   int      // buffered results
	dropped int64
	closed  bool
}

func newResultStream(buffer int) *ResultStream {
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	s := &ResultStream{buf: make([]Result, buffer)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends a result for the kernel, dropping the oldest buffered
// result when the ring is full. It reports false once the stream is
// closed so the kernel can unsubscribe it.
func (s *ResultStream) push(r Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.count == len(s.buf) {
		s.buf[s.head] = Result{}
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.dropped++
	}
	s.buf[(s.head+s.count)%len(s.buf)] = r
	s.count++
	s.cond.Signal()
	return true
}

// Next blocks until a result is available and returns it. It returns
// ok=false only when the stream is closed and fully drained, making
// `for r, ok := stream.Next(); ok; r, ok = stream.Next()` a complete
// consumption loop.
func (s *ResultStream) Next() (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.count == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.count == 0 {
		return Result{}, false
	}
	return s.popLocked(), true
}

// TryNext returns the next buffered result without blocking; ok=false
// means the buffer is currently empty (the stream may still be open).
func (s *ResultStream) TryNext() (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Result{}, false
	}
	return s.popLocked(), true
}

func (s *ResultStream) popLocked() Result {
	r := s.buf[s.head]
	s.buf[s.head] = Result{}
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	return r
}

// Close ends the subscription: blocked Next calls return after draining,
// and the kernel stops delivering into the stream at its next emission.
// Close is idempotent and safe from any goroutine.
func (s *ResultStream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.cond.Broadcast()
}

// Closed reports whether Close was called.
func (s *ResultStream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Dropped reports how many results were discarded because the consumer
// fell more than the buffer size behind the kernel.
func (s *ResultStream) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Subscribe registers a bounded result stream fed by every subsequent
// emission. buffer sizes the ring (non-positive selects
// DefaultStreamBuffer). Subscribe must be called on the goroutine that
// owns the kernel (sessions serialize it under their run lock); the
// returned stream itself is safe to consume from any goroutine. Closing
// the stream unsubscribes it at the kernel's next emission.
func (k *Kernel) Subscribe(buffer int) *ResultStream {
	s := newResultStream(buffer)
	k.subs = append(k.subs, s)
	return s
}

// CloseSubscriptions closes every subscribed stream — the end-of-stream
// signal consumers see when the session that owns this kernel is closed
// or evicted (a blocked Next returns after draining). Like Subscribe, it
// must run on the goroutine that owns the kernel.
func (k *Kernel) CloseSubscriptions() {
	for _, s := range k.subs {
		s.Close()
	}
	k.subs = nil
}
