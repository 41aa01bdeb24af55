package chaos

import (
	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Replay drives the full discrete-event simulation (schedule-aware
// clients on the airwave substrate) through the fault plan cfg describes:
// the plan's channel-side faults become the medium's drop function and
// its jitter becomes the slot clock's. Where RunParallel answers "what do
// the metrics look like under these faults" analytically per request,
// Replay exercises the actual retune/re-plan client machinery under the
// identical, seed-replayable fault schedule.
func Replay(prog *core.Program, reqs []workload.Request, cfg Config) (*sim.Outcome, *Plan, error) {
	plan, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		return nil, nil, err
	}
	simCfg := sim.Config{
		Mode:   sim.ScheduleAware,
		Jitter: plan.JitterFunc(),
	}
	if cfg.Active() {
		simCfg.Drop = plan.DropFunc()
		// Bound the simulation by the give-up horizon: a client that a
		// hostile plan starves past MaxCycles cycles is abandoned to the
		// on-demand channel rather than spinning forever.
		simCfg.AbandonAfter = float64(cfg.CycleBound()*prog.Length()) / float64(minTime(prog))
	}
	out, err := sim.Run(prog, reqs, simCfg)
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// minTime is the smallest expected time in the program's group set (the
// scale AbandonAfter multiplies).
func minTime(prog *core.Program) int {
	return prog.GroupSet().Group(0).Time
}
