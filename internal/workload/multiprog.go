package workload

import (
	"utlb/internal/trace"
	"utlb/internal/units"
)

// Multiprogram composes several *independent* applications onto one
// node — the workload class the paper could not study ("our traces
// are from shared memory parallel programs ... they may not reveal
// certain behaviors that multiple independent programs have", §7).
// Each application keeps its own five processes with globally unique
// PIDs but the programs are unrelated: their working sets and phase
// structures collide in the shared NIC translation cache without any
// of the coordination SPMD processes exhibit.
//
// The per-application scale is divided evenly so the combined lookup
// volume matches a single application at the requested scale.
func Multiprogram(apps []*Spec, node units.NodeID, seed int64, scale float64) (trace.Trace, error) {
	if len(apps) == 0 {
		return nil, nil
	}
	if scale <= 0 {
		scale = 1.0
	}
	perApp := scale / float64(len(apps))
	var traces []trace.Trace
	for i, spec := range apps {
		if err := spec.CheckScale(perApp); err != nil {
			return nil, err
		}
		traces = append(traces, spec.Generate(Config{
			Node:     node,
			FirstPID: units.ProcID(1 + i*ProcsPerNode),
			Seed:     seed*1000003 + int64(i),
			Scale:    perApp,
		}))
	}
	return trace.Merge(traces...), nil
}
