// The feed's one deadline timer: a blocked read costs no allocation,
// every reader times out at its own deadline, and Close ends the timer
// with the feed.

package netrecv

import (
	"runtime"
	"testing"
	"time"

	"dsi/internal/station"
	"dsi/internal/wire"
)

// waiting reports whether a reader is blocked on slot abs.
func (f *Feed) waiting(abs int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.awaited == abs
}

// TestBlockedReadAllocatesNothing: a lossy read that blocks for its slot
// and is then served allocates nothing — the wait's deadline lives in the
// reader's frame and the feed's one timer is re-armed, not made again.
func TestBlockedReadAllocatesNothing(t *testing.T) {
	const runs = 50
	feed := NewFeed(1, Options{RingSlots: 256, WaitTimeout: time.Minute}, nil)
	defer feed.Close()
	frames := make([][]byte, runs+1)
	for abs := range frames {
		var err error
		frames[abs], err = wire.AppendNetFrame(nil, wire.NetFrame{
			Kind: wire.NetData, Slot: uint32(abs), Ver: 1, Abs: int64(abs), Payload: []byte("eight by"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The sender files slot abs once the reader is blocked on it.
	next := make(chan int64)
	defer close(next)
	go func() {
		for abs := range next {
			for !feed.waiting(abs) {
				runtime.Gosched()
			}
			if _, err := feed.Consume(frames[abs]); err != nil {
				panic(err)
			}
		}
	}()
	run := make([]station.Packet, 1)
	buf := make([]byte, 0, 64)
	abs := int64(0)
	read := func() {
		next <- abs
		feed.ReadRunAt(run, buf, 0, abs)
		if run[0].Ver != 1 || string(run[0].Payload) != "eight by" {
			t.Fatalf("slot %d served as v%d %q", abs, run[0].Ver, run[0].Payload)
		}
		abs++
	}
	if n := testing.AllocsPerRun(runs, read); n != 0 {
		t.Fatalf("a read that blocks and is then served allocates %.1f times, want 0", n)
	}
	if feed.LostSlots() != 0 {
		t.Fatalf("%d slots served as lost", feed.LostSlots())
	}
}

// TestReadersTimeOutAtTheirOwnDeadlines: two readers blocked 30 ms apart
// on slots that never come each time out at their own deadline — the
// earlier one does not wait for the later one's, nor the later one
// leave at the earlier one's — and a bootstrap wait on the same timer
// times out at its own.
func TestReadersTimeOutAtTheirOwnDeadlines(t *testing.T) {
	const timeout, apart = 150 * time.Millisecond, 30 * time.Millisecond
	attempt := func() (waited [2]time.Duration, lost bool) {
		feed := NewFeed(2, Options{WaitTimeout: timeout}, nil)
		defer feed.Close()
		type read struct {
			waited time.Duration
			ver    uint32
		}
		done := make(chan read, 2)
		for ch := range 2 {
			go func() {
				time.Sleep(time.Duration(ch) * apart)
				began := time.Now()
				_, ver := feed.PacketAt(ch, 10)
				done <- read{time.Since(began), ver}
			}()
		}
		lost = true
		for i := range waited {
			r := <-done
			lost = lost && r.ver == 0
			waited[i] = r.waited
		}
		return waited, lost
	}
	// A loaded machine can wake a reader late: a late wake-up is retried,
	// a reader served before its deadline never is.
	var waited [2]time.Duration
	for try := 0; try < 3; try++ {
		var lost bool
		waited, lost = attempt()
		if !lost {
			t.Fatal("a slot that never came was served")
		}
		for _, w := range waited {
			if w < timeout {
				t.Fatalf("a reader timed out after %v, before its %v deadline", w, timeout)
			}
		}
		if waited[0] < timeout+apart && waited[1] < timeout+apart {
			break
		}
	}
	if waited[0] >= timeout+apart || waited[1] >= timeout+apart {
		t.Fatalf("readers waited %v against a %v timeout: one waited for the other's deadline", waited, timeout)
	}

	feed := NewFeed(1, Options{}, nil)
	defer feed.Close()
	began := time.Now()
	if _, ok := feed.WaitLive(50 * time.Millisecond); ok {
		t.Fatal("a feed with no frames came alive")
	}
	if w := time.Since(began); w < 50*time.Millisecond {
		t.Fatalf("WaitLive gave up after %v of 50ms", w)
	}
}

// TestCloseEndsTheTimer: Close releases the blocked readers and ends the
// feed's timer, so the goroutines come back to where they were.
func TestCloseEndsTheTimer(t *testing.T) {
	base := runtime.NumGoroutine()
	feed := NewFeed(2, Options{WaitTimeout: time.Minute}, nil)
	done := make(chan uint32, 2)
	for ch := range 2 {
		go func() {
			_, ver := feed.PacketAt(ch, 5)
			done <- ver
		}()
	}
	for !feed.waiting(5) {
		runtime.Gosched()
	}
	feed.Close()
	for range 2 {
		if ver := <-done; ver != 0 {
			t.Fatalf("a read released by Close served v%d", ver)
		}
	}
	for giveUp := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(giveUp) {
			t.Fatalf("%d goroutines after Close, %d before the feed", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if _, ver := feed.PacketAt(0, 6); ver != 0 {
		t.Fatalf("a read after Close served v%d", ver)
	}
}
