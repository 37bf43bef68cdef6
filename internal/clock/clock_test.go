package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC) // CIDR 2009 opening day

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(epoch)
	if !v.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), epoch)
	}
	v.Advance(time.Hour)
	if got, want := v.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now after advance = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceToBackwardsIsNoop(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(time.Hour)
	v.AdvanceTo(epoch) // in the past
	if got, want := v.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now = %v, want unchanged %v", got, want)
	}
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	c1 := v.After(1 * time.Minute)
	c2 := v.After(2 * time.Minute)
	c3 := v.After(3 * time.Minute)

	v.Advance(2 * time.Minute)

	if got := <-c1; !got.Equal(epoch.Add(1 * time.Minute)) {
		t.Errorf("c1 fired at %v, want %v", got, epoch.Add(time.Minute))
	}
	if got := <-c2; !got.Equal(epoch.Add(2 * time.Minute)) {
		t.Errorf("c2 fired at %v, want %v", got, epoch.Add(2*time.Minute))
	}
	select {
	case <-c3:
		t.Error("c3 fired before its deadline")
	default:
	}
	v.Advance(time.Minute)
	if got := <-c3; !got.Equal(epoch.Add(3 * time.Minute)) {
		t.Errorf("c3 fired at %v, want %v", got, epoch.Add(3*time.Minute))
	}
}

func TestVirtualAfterZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(epoch)
	select {
	case got := <-v.After(0):
		if !got.Equal(epoch) {
			t.Errorf("fired at %v, want %v", got, epoch)
		}
	default:
		t.Error("After(0) did not fire immediately")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(10 * time.Second)
		close(done)
	}()
	v.BlockUntilWaiters(1) // the sleeper has registered
	v.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
}

func TestVirtualSameDeadlineFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	const n = 8
	chans := make([]<-chan time.Time, n)
	for i := range chans {
		chans[i] = v.After(time.Second)
	}
	v.Advance(time.Second)
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
}

func TestVirtualConcurrentAfter(t *testing.T) {
	v := NewVirtual(epoch)
	const n = 64
	var wg sync.WaitGroup
	fired := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-v.After(time.Duration(i%7+1) * time.Second)
			fired <- struct{}{}
		}(i)
	}
	v.BlockUntilWaiters(n)
	v.Advance(10 * time.Second)
	wg.Wait()
	if len(fired) != n {
		t.Fatalf("fired %d timers, want %d", len(fired), n)
	}
}

func TestVirtualSince(t *testing.T) {
	v := NewVirtual(epoch)
	start := v.Now()
	v.Advance(90 * time.Minute)
	if got := v.Since(start); got != 90*time.Minute {
		t.Fatalf("Since = %v, want 90m", got)
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	before := time.Now()
	now := r.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now too far in past: %v < %v", now, before)
	}
	start := r.Now()
	r.Sleep(time.Millisecond)
	if r.Since(start) <= 0 {
		t.Fatal("Real.Since not positive after Sleep")
	}
	select {
	case <-r.After(time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestBlockUntilWaiters(t *testing.T) {
	v := NewVirtual(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))
	done := make(chan time.Time, 1)
	go func() {
		ch := v.After(time.Second)
		done <- <-ch
	}()
	v.BlockUntilWaiters(1) // returns once the goroutine has registered
	if v.PendingTimers() < 1 {
		t.Fatal("no pending timer after BlockUntilWaiters")
	}
	v.Advance(time.Second)
	if fired := <-done; !fired.Equal(v.Now()) {
		t.Fatalf("fired at %v, clock at %v", fired, v.Now())
	}
	v.BlockUntilWaiters(0) // zero waiters: returns immediately
}
