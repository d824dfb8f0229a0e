package lockheld

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
	n  int
}

func (s *S) sendLocked() {
	s.mu.Lock()
	s.ch <- 1 // WANT lock-held
	s.mu.Unlock()
}

func (s *S) recvLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // WANT lock-held
}

func (s *S) selectLocked() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	select { // WANT lock-held
	case <-s.ch:
	}
}

func (s *S) emptySelectLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {} // WANT lock-held
}

func (s *S) rangeLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for range s.ch { // WANT lock-held
	}
}

func (s *S) waitLocked() {
	s.mu.Lock()
	s.wg.Wait() // WANT lock-held
	s.mu.Unlock()
}

func (s *S) sleepLocked() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // WANT lock-held
	s.mu.Unlock()
}

func (s *S) ioLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Remove("x") // WANT lock-held
}

func (s *S) nonBlockingSelect() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

func (s *S) afterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

func (s *S) condWait(c *sync.Cond) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Wait() // Cond.Wait requires the lock by contract: exempt
}

func (s *S) goroutineBodyIsFresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // runs on its own stack without the lock
	}()
}

func (s *S) predicateOK() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := os.Stat("x") // WANT lock-held
	return os.IsNotExist(err)
}

// The early-return Unlock releases the lock on one path only: the send
// below it still runs locked.
func (s *S) earlyReturnUnlock(err error) {
	s.mu.Lock()
	if err != nil {
		s.mu.Unlock()
		return
	}
	s.ch <- 1 // WANT lock-held
	s.mu.Unlock()
}

func (s *S) tryLockSuccess() {
	if s.mu.TryLock() {
		s.ch <- 1 // WANT lock-held
		s.mu.Unlock()
	}
}

func (s *S) tryLockFailure() {
	if !s.mu.TryLock() {
		s.ch <- 1 // the lock was not taken on this branch
		return
	}
	s.mu.Unlock()
}

// The lock taken at the bottom of one iteration is held when the next
// iteration waits.
func (s *S) heldAcrossBackEdge(k int) {
	for i := 0; i < k; i++ {
		s.wg.Wait() // WANT lock-held
		s.mu.Lock()
		s.n++
	}
	s.mu.Unlock()
}

func (s *S) nonBlockingReceive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}

func (s *S) deferredClosureUnlock() {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.ch <- 1 // runs at exit, after the unlock
	}()
	s.n++
}

func (s *S) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lock-held fixture: ordering requires the lock across the send
	s.ch <- 1
}
