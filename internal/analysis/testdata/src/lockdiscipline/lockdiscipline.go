// Package lockdiscipline is the golden corpus for the lockdiscipline
// checker: blocking operations while a sync (RW)Mutex is held.
package lockdiscipline

import (
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
}

func (b *box) blockingUnderLock(v int) int {
	b.mu.Lock()
	b.ch <- v        // want lockdiscipline
	got := <-b.ch    // want lockdiscipline
	time.Sleep(1)    // want lockdiscipline
	b.wg.Wait()      // want lockdiscipline
	for range b.ch { // want lockdiscipline
		break
	}
	b.mu.Unlock()
	return got
}

func (b *box) blockingUnderDeferredRLock() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	select { // want lockdiscipline
	case v := <-b.ch:
		return v
	}
}

func (b *box) releaseThenBlock(v int) {
	b.mu.Lock()
	queued := v + 1
	b.mu.Unlock()
	b.ch <- queued // ok: lock released first
}

func (b *box) nonBlockingNotify() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // ok: default case makes this non-blocking
	case b.ch <- 1:
	default:
	}
}

func (b *box) branchRelease(n int) {
	b.mu.Lock()
	if n > 0 {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	<-b.ch // ok: every fallthrough path released the lock
}

func (b *box) earlyReturnKeepsHeld(n int) {
	b.mu.Lock()
	if n > 0 {
		n++
	}
	<-b.ch // want lockdiscipline
	b.mu.Unlock()
}

func (b *box) goroutineBodyIsSeparate() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		<-b.ch // ok: runs without the caller's lock
	}()
}

func (b *box) allowAnnotated() {
	b.mu.Lock()
	<-b.ch //lint:allow lockdiscipline suppression demo: handshake is bounded by construction
	b.mu.Unlock()
}

// twoInstances holds two locks of one type: releasing a.mu must leave b.mu
// held, so the held set cannot be keyed by type.
func twoInstances(a, b *box, v int) {
	a.mu.Lock()
	b.mu.Lock()
	a.mu.Unlock()
	b.ch <- v // want lockdiscipline
	b.mu.Unlock()
}

func (b *box) onceUnderLock(once *sync.Once) {
	b.mu.Lock()
	once.Do(func() {}) // want lockdiscipline
	b.mu.Unlock()
	once.Do(func() {}) // ok: no lock held
}
