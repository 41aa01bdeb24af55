// Package chaos is the deterministic fault-injection layer of the
// broadcast runtime: seed-replayable frame loss (i.i.d. and Gilbert–
// Elliott bursts), slot jitter, periodic server stall windows, client
// churn and frame corruption, plus the measurement engine that drives a
// per-client deadline-miss ledger through them.
//
// Everything is a pure function of (Config.Seed, channel, slot) — or, for
// the sequential burst chain, of a per-channel tape precomputed at Plan
// construction — so a failing run replays bit-for-bit from its seed at
// any worker count. With every fault probability zero the engine's
// arithmetic is an exact mirror of sim.MeasureStream, and the package
// tests pin that equality bit-for-bit; conformance.MissFreeLaw then turns
// "zero faults on a valid program" into a machine-checked zero-miss law.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package chaos

import (
	"fmt"
	"math"

	"tcsa/internal/airwave"
)

// Fault-kind tags folded into the stateless per-(channel, slot) hashes.
// Distinct tags decorrelate the fault processes sharing one seed.
const (
	kindLoss uint64 = iota + 1
	kindCorrupt
	kindJitter
	kindChurn
	kindBurst
)

// BurstConfig parameterises the per-channel Gilbert–Elliott burst-loss
// chain (the same model as airwave.GilbertElliott, replayed onto a
// deterministic per-channel tape so it stays seekable).
type BurstConfig struct {
	// GoodToBad and BadToGood are per-slot state transition probabilities.
	GoodToBad, BadToGood float64
	// LossGood and LossBad are the loss probabilities within each state.
	LossGood, LossBad float64
}

// Config selects which faults a Plan injects. The zero value is the
// fault-free plan.
type Config struct {
	// Seed drives every fault process; identical Seed + Config replays the
	// identical fault pattern.
	Seed int64
	// Loss is the i.i.d. per-(channel, slot) frame-loss probability.
	Loss float64
	// Burst, when non-nil, adds Gilbert–Elliott burst loss per channel.
	Burst *BurstConfig
	// Corrupt is the per-(channel, slot) probability that a frame arrives
	// undecodable (same timing effect as loss, ledgered separately).
	Corrupt float64
	// StallEvery/StallFor inject periodic server stall windows: the first
	// StallFor slots of every StallEvery-slot period transmit nothing on
	// any channel. StallEvery 0 disables stalls.
	StallEvery, StallFor int
	// Jitter is the maximum slot-boundary jitter in slots, in [0, 0.5]:
	// slot k's transmission is delayed by a hash-uniform offset in
	// [0, Jitter].
	Jitter float64
	// Churn is the probability that a client is mid-disconnect (rejoining)
	// when an appearance of its page airs, independently per attempt.
	Churn float64
	// MaxCycles bounds how many broadcast cycles a client waits before
	// giving up (ledgered as Unserved). 0 means DefaultMaxCycles.
	MaxCycles int
	// Horizon bounds the burst-tape length in slots; beyond it the burst
	// chain is treated as fault-free. 0 derives (MaxCycles+2)*length,
	// capped at DefaultHorizonCap.
	Horizon int
	// Replan enables the graceful-degradation path: the engine re-runs
	// PAMAD against the effective channel capacity observed under the
	// plan's loss rate and reports the degraded schedule (Result.Replan).
	Replan bool
}

// DefaultMaxCycles is the give-up bound when Config.MaxCycles is 0: far
// beyond any plausible wait on a working channel, small enough that a
// fully stalled channel still terminates.
const DefaultMaxCycles = 64

// DefaultHorizonCap caps the derived burst-tape length (64 Ki-slots per
// channel ≈ 8 KiB of bitset per channel).
const DefaultHorizonCap = 1 << 21

// Validate reports the first malformed field.
func (c Config) Validate() error {
	for name, p := range map[string]float64{"Loss": c.Loss, "Corrupt": c.Corrupt, "Churn": c.Churn} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("chaos: %s probability %g outside [0, 1]", name, p)
		}
	}
	if c.Jitter < 0 || c.Jitter > 0.5 || math.IsNaN(c.Jitter) {
		return fmt.Errorf("chaos: jitter %g outside [0, 0.5]", c.Jitter)
	}
	if c.StallEvery < 0 || c.StallFor < 0 {
		return fmt.Errorf("chaos: negative stall window %d/%d", c.StallEvery, c.StallFor)
	}
	if c.StallEvery > 0 && c.StallFor >= c.StallEvery {
		return fmt.Errorf("chaos: stall %d of every %d slots leaves no air time", c.StallFor, c.StallEvery)
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("chaos: negative MaxCycles %d", c.MaxCycles)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("chaos: negative Horizon %d", c.Horizon)
	}
	if b := c.Burst; b != nil {
		for name, p := range map[string]float64{
			"GoodToBad": b.GoodToBad, "BadToGood": b.BadToGood,
			"LossGood": b.LossGood, "LossBad": b.LossBad,
		} {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("chaos: burst %s probability %g outside [0, 1]", name, p)
			}
		}
		if b.BadToGood == 0 && b.GoodToBad > 0 {
			return fmt.Errorf("chaos: burst chain absorbs in the bad state (BadToGood = 0)")
		}
	}
	return nil
}

// Active reports whether the config injects any fault at all. Inactive
// configs take the exact sim.MeasureStream arithmetic path.
func (c Config) Active() bool {
	return c.Loss > 0 || c.Corrupt > 0 || c.Churn > 0 || c.Jitter > 0 ||
		(c.StallEvery > 0 && c.StallFor > 0) ||
		(c.Burst != nil && (c.Burst.LossGood > 0 || c.Burst.LossBad > 0))
}

// CycleBound resolves the give-up bound: MaxCycles, or DefaultMaxCycles
// when unset.
func (c Config) CycleBound() int {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return DefaultMaxCycles
}

// Plan is a materialised fault schedule for one broadcast configuration:
// stateless hashes for the memoryless processes plus per-channel burst
// tapes for the Markov chain. A Plan is immutable after construction and
// safe for concurrent use; it implements netcast.FaultInjector.
type Plan struct {
	cfg      Config
	channels int
	length   int
	horizon  int        // burst-tape length in slots (0 when Burst is nil)
	burst    [][]uint64 // per-channel loss bitset over [0, horizon)
}

// NewPlan validates cfg and precomputes the burst tapes for a program
// with the given channel count and cycle length.
func NewPlan(cfg Config, channels, length int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if channels < 1 || length < 1 {
		return nil, fmt.Errorf("chaos: %d channels x %d slots", channels, length)
	}
	p := &Plan{cfg: cfg, channels: channels, length: length}
	if cfg.Burst != nil {
		p.horizon = cfg.Horizon
		if p.horizon == 0 {
			p.horizon = (cfg.CycleBound() + 2) * length
			if p.horizon > DefaultHorizonCap {
				p.horizon = DefaultHorizonCap
			}
		}
		p.burst = make([][]uint64, channels)
		for ch := 0; ch < channels; ch++ {
			p.burst[ch] = burstTape(cfg.Seed, *cfg.Burst, ch, p.horizon)
		}
	}
	return p, nil
}

// splitmix64 is the avalanche finalizer also used by workload's per-shard
// seeding: a bijection over uint64 whose output bits are uniform.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash01 maps (seed, kind, a, b) to a uniform float64 in [0, 1). Distinct
// odd multipliers keep the three key components from aliasing.
func (p *Plan) hash01(kind, a, b uint64) float64 {
	z := uint64(p.cfg.Seed) ^ 0x6a09e667f3bcc909
	z += kind * 0x9e3779b97f4a7c15
	z += a * 0xc2b2ae3d27d4eb4f
	z += b * 0x165667b19e3779f9
	return float64(splitmix64(z)>>11) / (1 << 53)
}

// burstRNG is a tiny deterministic PRNG (splitmix64 stream) for the
// sequential burst chain; math/rand would also do, but a counter stream
// keeps the tape reproducible from first principles in the docs.
type burstRNG struct{ state uint64 }

func (r *burstRNG) float64() float64 {
	r.state += 0x9e3779b97f4a7c15
	return float64(splitmix64(r.state)>>11) / (1 << 53)
}

// burstTape runs the Gilbert–Elliott chain for one channel over horizon
// slots and records the lost slots as a bitset. One state step and one
// loss draw per slot, mirroring airwave.GilbertElliott's per-slot
// behaviour.
func burstTape(seed int64, b BurstConfig, channel, horizon int) []uint64 {
	rng := burstRNG{state: uint64(seed) ^ splitmix64(kindBurst+uint64(channel)*0x9e3779b97f4a7c15)}
	tape := make([]uint64, (horizon+63)/64)
	bad := false
	for s := 0; s < horizon; s++ {
		if bad {
			if rng.float64() < b.BadToGood {
				bad = false
			}
		} else {
			if rng.float64() < b.GoodToBad {
				bad = true
			}
		}
		loss := b.LossGood
		if bad {
			loss = b.LossBad
		}
		if loss > 0 && rng.float64() < loss {
			tape[s/64] |= 1 << (s % 64)
		}
	}
	return tape
}

// Stalled reports whether the server transmits nothing (on any channel)
// during absolute slot abs.
func (p *Plan) Stalled(abs int) bool {
	if p.cfg.StallEvery <= 0 || p.cfg.StallFor <= 0 || abs < 0 {
		return false
	}
	return abs%p.cfg.StallEvery < p.cfg.StallFor
}

// Drop reports whether the frame on channel ch at absolute slot abs is
// lost in transit (i.i.d. or burst loss; stalls and corruption are
// separate predicates).
func (p *Plan) Drop(ch, abs int) bool {
	if abs < 0 {
		return false
	}
	if p.cfg.Loss > 0 && p.hash01(kindLoss, uint64(ch), uint64(abs)) < p.cfg.Loss {
		return true
	}
	if p.burst != nil && ch >= 0 && ch < p.channels && abs < p.horizon {
		return p.burst[ch][abs/64]&(1<<(abs%64)) != 0
	}
	return false
}

// Corrupt reports whether the frame on channel ch at absolute slot abs
// arrives undecodable.
func (p *Plan) Corrupt(ch, abs int) bool {
	return p.cfg.Corrupt > 0 && abs >= 0 &&
		p.hash01(kindCorrupt, uint64(ch), uint64(abs)) < p.cfg.Corrupt
}

// JitterAt returns the transmission delay of absolute slot abs, a
// hash-uniform offset in [0, Config.Jitter].
func (p *Plan) JitterAt(abs int) float64 {
	if p.cfg.Jitter <= 0 || abs < 0 {
		return 0
	}
	return p.hash01(kindJitter, uint64(abs), 0) * p.cfg.Jitter
}

// ChurnAway reports whether the client serving global request req is
// mid-disconnect (and so deaf) at its attempt-th delivery opportunity.
func (p *Plan) ChurnAway(req int64, attempt int) bool {
	return p.cfg.Churn > 0 &&
		p.hash01(kindChurn, uint64(req), uint64(attempt)) < p.cfg.Churn
}

// Lost reports whether the delivery on channel ch at absolute slot abs
// fails for any channel-side reason (stall, loss or corruption).
func (p *Plan) Lost(ch, abs int) bool {
	return p.Stalled(abs) || p.Drop(ch, abs) || p.Corrupt(ch, abs)
}

// SkipReason classifies why one delivery opportunity on a channel was
// missed, in the measurement engine's ledger taxonomy.
type SkipReason int

const (
	// SkipNone: the frame aired intact (churn may still apply per client).
	SkipNone SkipReason = iota
	// SkipStall: the server stalled for the whole slot.
	SkipStall
	// SkipLoss: the frame was lost in transit (i.i.d. or burst).
	SkipLoss
	// SkipCorrupt: the frame arrived but failed its checksum.
	SkipCorrupt
)

// Classify reports the channel-side fate of the frame on channel ch at
// absolute slot abs, evaluating the fault predicates in the same
// priority order as the measurement engine (stall, then drop, then
// corruption). Client-side churn is per request, not per frame, and is
// judged separately via ChurnAway.
func (p *Plan) Classify(ch, abs int) SkipReason {
	switch {
	case p.Stalled(abs):
		return SkipStall
	case p.Drop(ch, abs):
		return SkipLoss
	case p.Corrupt(ch, abs):
		return SkipCorrupt
	default:
		return SkipNone
	}
}

// DropFunc adapts the channel-side faults to the airwave loss interface,
// for replaying the plan through the discrete-event simulation.
func (p *Plan) DropFunc() airwave.DropFunc {
	return func(f airwave.Frame) bool { return p.Lost(f.Channel, f.Slot) }
}

// JitterFunc adapts JitterAt for airwave.WithSlotJitter; nil when the
// plan has no jitter, so lossless media keep the fixed-period fast path.
func (p *Plan) JitterFunc() func(slot int) float64 {
	if p.cfg.Jitter <= 0 {
		return nil
	}
	return p.JitterAt
}

// EffectiveLossRate is the fraction of the first maxCycles cycles' frame
// slots lost to stalls, drops and corruption — the observed channel
// quality the graceful-degradation path feeds back into PAMAD. It is a
// pure function of the plan, so every worker and every replay sees the
// same value.
func (p *Plan) EffectiveLossRate() float64 {
	if !p.cfg.Active() {
		return 0
	}
	window := p.cfg.CycleBound() * p.length
	if window > 1<<16 {
		window = 1 << 16 // ample for a stable rate estimate, bounded work
	}
	lost := 0
	for abs := 0; abs < window; abs++ {
		for ch := 0; ch < p.channels; ch++ {
			if p.Lost(ch, abs) {
				lost++
			}
		}
	}
	return float64(lost) / float64(window*p.channels)
}

// effectiveChannels converts an observed loss rate into the usable channel
// capacity: the nominal count scaled down by the rate, floored, never below
// one channel.
func effectiveChannels(channels int, loss float64) int {
	n := int(float64(channels) * (1 - loss))
	if n < 1 {
		n = 1
	}
	return n
}
