package retry

import (
	"sync"
	"testing"
	"time"
)

func TestBackoffBaseGrowthAndCap(t *testing.T) {
	b := New(BackoffOptions{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 1})
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Base(i); got != w {
			t.Fatalf("Base(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestFullJitterBounds(t *testing.T) {
	b := New(BackoffOptions{Min: 100 * time.Millisecond, Max: time.Second, Seed: 7})
	for attempt := 0; attempt < 5; attempt++ {
		base := b.Base(attempt)
		var minSeen, maxSeen time.Duration = base, 0
		for i := 0; i < 500; i++ {
			d := b.Delay(attempt)
			if d < 0 || d > base {
				t.Fatalf("attempt %d: delay %v outside full-jitter bounds [0, %v]", attempt, d, base)
			}
			if d < minSeen {
				minSeen = d
			}
			if d > maxSeen {
				maxSeen = d
			}
		}
		// Full jitter must actually spread across the range, not hug the base.
		if minSeen > base/4 || maxSeen < base/2 {
			t.Fatalf("attempt %d: full jitter not spread: saw [%v, %v] over base %v", attempt, minSeen, maxSeen, base)
		}
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	a := New(BackoffOptions{Min: 50 * time.Millisecond, Seed: 99})
	b := New(BackoffOptions{Min: 50 * time.Millisecond, Seed: 99})
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i%4), b.Delay(i%4); da != db {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
	}
}

// allow is Allow for the single-caller tests, which never wait on a probe.
func allow(b *Breaker) bool {
	ok, _ := b.Allow()
	return ok
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerOptions{Threshold: 3, Cooldown: time.Second, Now: func() time.Time { return now }})
	if b.State() != Closed || !allow(b) {
		t.Fatal("new breaker should be closed and allowing")
	}
	if b.Failure() {
		t.Fatal("failure 1 should not open")
	}
	if b.Failure() {
		t.Fatal("failure 2 should not open")
	}
	if !b.Failure() {
		t.Fatal("failure 3 should report the open transition")
	}
	if b.State() != Open || allow(b) {
		t.Fatal("breaker should be open and refusing")
	}
	if b.Failure() {
		t.Fatal("failure while open must not re-report the transition")
	}
	if got := b.Fails(); got != 4 {
		t.Fatalf("Fails = %d, want 4", got)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Now: func() time.Time { return now }})
	b.Failure()
	if allow(b) {
		t.Fatal("open breaker must refuse before cooldown")
	}
	now = now.Add(time.Second)
	if !allow(b) {
		t.Fatal("cooldown elapsed: first Allow must admit the half-open probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.State())
	}
	if allow(b) {
		t.Fatal("second Allow during the probe must refuse (exactly one probe)")
	}

	// Probe failure re-opens for a fresh cooldown.
	if !b.Failure() {
		t.Fatal("failed probe must report re-opening")
	}
	if allow(b) {
		t.Fatal("re-opened breaker must refuse")
	}
	now = now.Add(time.Second)
	if !allow(b) {
		t.Fatal("second cooldown elapsed: probe should be admitted again")
	}

	// Probe success closes and resets.
	b.Success()
	if b.State() != Closed || b.Fails() != 0 {
		t.Fatalf("after probe success: state=%v fails=%d, want Closed/0", b.State(), b.Fails())
	}
	if !allow(b) {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerStateStringAndReset(t *testing.T) {
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("State.String mismatch")
	}
	b := NewBreaker(BreakerOptions{Threshold: 1})
	b.Failure()
	b.Success()
	if b.State() != Closed || b.Fails() != 0 {
		t.Fatal("Success should reset the breaker: close it and zero the count")
	}
}

// TestBreakerProbeable: the non-consuming health view — false only while
// open with an unelapsed cooldown, true again once a probe could run, and
// polling it never consumes the half-open probe slot.
func TestBreakerProbeable(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Now: func() time.Time { return now }})
	if !b.Probeable() {
		t.Fatal("closed breaker not probeable")
	}
	b.Failure()
	if b.Probeable() {
		t.Fatal("freshly opened breaker probeable")
	}
	now = now.Add(time.Second)
	for i := 0; i < 3; i++ {
		if !b.Probeable() {
			t.Fatal("cooldown elapsed but not probeable")
		}
	}
	if st := b.State(); st != Open {
		t.Fatalf("Probeable consumed a transition: state %v", st)
	}
	if !allow(b) {
		t.Fatal("probe slot gone after Probeable polls")
	}
	if b.Probeable() {
		// Half-open with the probe in flight: Allow refuses a second
		// request, but for health purposes the dependency is being tested
		// right now — still probeable.
		t.Log("half-open reported probeable")
	}
	b.Failure() // failed probe re-opens and restarts the cooldown
	if b.Probeable() {
		t.Fatal("re-opened breaker probeable before second cooldown")
	}
}

// TestBreakerProbeGate: callers refused while the half-open probe is in
// flight get a channel that resolves with the probe, so a concurrent
// fan-out to a recovering peer waits on one probe instead of failing
// beside it. Exactly one caller is admitted as the probe; on its Success
// every waiter is admitted, on its Failure every waiter is refused
// without a channel (nothing left to wait for until the next cooldown).
func TestBreakerProbeGate(t *testing.T) {
	for _, probeOK := range []bool{true, false} {
		now := time.Unix(0, 0)
		b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Now: func() time.Time { return now }})
		b.Failure()
		if ok, probing := b.Allow(); ok || probing != nil {
			t.Fatalf("open within cooldown: ok=%v probing=%v, want refused with nothing to wait on", ok, probing != nil)
		}
		now = now.Add(time.Second)

		const callers = 8
		var wg sync.WaitGroup
		var mu sync.Mutex
		probes, admittedAfter := 0, 0
		asked := make(chan struct{}, callers)
		release := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok, probing := b.Allow()
				asked <- struct{}{}
				if ok {
					mu.Lock()
					probes++
					mu.Unlock()
					<-release // hold the probe until every sibling has asked
					if probeOK {
						b.Success()
					} else {
						b.Failure()
					}
					return
				}
				if probing == nil {
					t.Error("refused during the probe without a channel to wait on")
					return
				}
				<-probing
				if ok, again := b.Allow(); ok {
					mu.Lock()
					admittedAfter++
					mu.Unlock()
				} else if again != nil {
					t.Error("probe resolved but Allow still reports one in flight")
				}
			}()
		}
		// The probe holder blocks on release until all have asked, so every
		// other caller sees HalfOpen however the goroutines are scheduled.
		for i := 0; i < callers; i++ {
			<-asked
		}
		close(release)
		wg.Wait()

		if probes != 1 {
			t.Fatalf("probeOK=%v: %d callers admitted as the probe, want exactly 1", probeOK, probes)
		}
		want := 0
		if probeOK {
			want = callers - 1
		}
		if admittedAfter != want {
			t.Fatalf("probeOK=%v: %d waiters admitted after the probe, want %d", probeOK, admittedAfter, want)
		}
	}
}
