// Package retry holds the shardrpc client's retry primitives: exponential
// backoff with full jitter (the waits between attempts) and a
// consecutive-failure circuit breaker with a half-open probe state (one
// per peer). Both are small, deterministic under a seed or clock, and
// safe for concurrent use.
package retry

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes the delay before retry attempt n. The base delay grows
// exponentially — Min × 2^n, capped at Max — and the delay is drawn
// uniformly from [0, base], the classic "full jitter" of the AWS
// architecture blog: the right shape for RPC retries, where the goal is
// decorrelation and an immediate retry is fine.
//
// The zero value is not usable; call New.
type Backoff struct {
	min time.Duration
	max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// BackoffOptions configures New. Zero values take the defaults noted.
type BackoffOptions struct {
	Min  time.Duration // first-attempt base delay (default 1s)
	Max  time.Duration // base-delay cap (default 5m)
	Seed int64         // jitter stream seed (0 derives from the clock)
}

// New returns a Backoff with opts applied over the defaults.
func New(opts BackoffOptions) *Backoff {
	if opts.Min <= 0 {
		opts.Min = time.Second
	}
	if opts.Max <= 0 {
		opts.Max = 5 * time.Minute
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{
		min: opts.Min,
		max: opts.Max,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Base returns the unjittered delay for attempt n (n counts completed
// failures: the wait before the first retry is Base(0) = Min).
func (b *Backoff) Base(attempt int) time.Duration {
	d := float64(b.min)
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= float64(b.max) {
			return b.max
		}
	}
	if d > float64(b.max) {
		return b.max
	}
	return time.Duration(d)
}

// Delay returns the jittered delay for attempt n, drawn uniformly from
// [0, Base(n)].
func (b *Backoff) Delay(attempt int) time.Duration {
	base := b.Base(attempt)
	b.mu.Lock()
	u := b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(u * float64(base))
}

// State is a Breaker's position.
type State int

const (
	// Closed: requests flow; failures count toward the threshold.
	Closed State = iota
	// Open: requests are refused until the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed and one probe is in flight; its
	// outcome closes or re-opens the breaker.
	HalfOpen
)

// String implements fmt.Stringer (the /stats shards block renders it).
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker. Threshold consecutive
// failures open it; after Cooldown, Allow admits exactly one probe
// (half-open); the probe's Success closes the breaker, its Failure
// re-opens it for another cooldown. Success in any state resets the
// failure count. Callers refused while the probe is in flight get a
// channel to wait on its outcome, so concurrent requests to a recovering
// dependency queue behind the probe instead of failing beside it.
type Breaker struct {
	threshold int64
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	fails    int64
	state    State
	openedAt time.Time
	probe    chan struct{} // non-nil while half-open; closed when the probe resolves
}

// BreakerOptions configures NewBreaker.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5).
	Threshold int64
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 5 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Breaker{threshold: opts.Threshold, cooldown: opts.Cooldown, now: opts.Now}
}

// Allow reports whether a request may proceed. In the open state it
// refuses until the cooldown elapses, then admits exactly one caller (the
// half-open probe). While that probe is in flight, Allow refuses and
// returns a channel that is closed when the probe's Success or Failure is
// recorded: the refused caller can wait on it and ask again. The channel
// is nil in every other case.
func (b *Breaker) Allow() (ok bool, probing <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, nil
	case HalfOpen:
		return false, b.probe
	default:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, nil
		}
		b.state = HalfOpen
		b.probe = make(chan struct{})
		return true, nil
	}
}

// resolveProbe wakes everyone waiting on the half-open probe. Callers
// hold b.mu.
func (b *Breaker) resolveProbe() {
	if b.probe != nil {
		close(b.probe)
		b.probe = nil
	}
}

// Success records a successful request, closing the breaker and resetting
// the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.state = Closed
	b.resolveProbe()
	b.mu.Unlock()
}

// Failure records a failed request. It returns true exactly when this
// failure opened the breaker (for logging/metrics on the transition). A
// failed half-open probe re-opens immediately regardless of the count.
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == Open {
		return false
	}
	if b.state == HalfOpen || b.fails >= b.threshold {
		b.state = Open
		b.openedAt = b.now()
		b.resolveProbe()
		return true
	}
	return false
}

// State reports the breaker's position, resolving an elapsed cooldown as
// Open still (the transition to HalfOpen happens in Allow, not here, so
// observers never consume the probe slot).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Probeable reports whether a request could proceed right now — closed,
// half-open, or open with the cooldown elapsed. Unlike Allow it never
// consumes the half-open probe slot, so health observers can poll it:
// State() alone reports Open until real traffic arrives to probe, which
// would hold a recovered-but-idle dependency "down" indefinitely.
func (b *Breaker) Probeable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open {
		return b.now().Sub(b.openedAt) >= b.cooldown
	}
	return true
}

// Fails reports the consecutive-failure count.
func (b *Breaker) Fails() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}
