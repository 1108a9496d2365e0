package sim

import (
	"fmt"
	"strings"
	"testing"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// tracePages lists each process' distinct pages, the only ones a run
// without pre-pinning may pin.
func tracePages(tr trace.Trace) map[units.ProcID][]units.VPN {
	seen := map[tlbcache.Key]bool{}
	out := map[units.ProcID][]units.VPN{}
	for _, rec := range tr {
		first := rec.VA.PageOf()
		for p := 0; p < units.PagesSpanned(rec.VA, int(rec.Bytes)); p++ {
			if k := (tlbcache.Key{PID: rec.PID, VPN: first + units.VPN(p)}); !seen[k] {
				seen[k] = true
				out[k.PID] = append(out[k.PID], k.VPN)
			}
		}
	}
	return out
}

// pinInvariants checks the end state of the run scr last replayed
// against each of its processes' pinned pages (vm.Space), for the
// design that ran:
//
//   - UTLB: the bit vector equals the pinned set, and the host table
//     maps each pinned page to its frame;
//   - Intr: the pinned pages equal the cached keys, the baseline's
//     defining property, and each cached frame is the page's;
//   - PerProc: valid table slots, tree entries and pinned pages agree
//     one to one, each slot holding its page's frame;
//   - every design: Pins − Unpins equals the pages still pinned.
//
// The error names the design and the invariant it broke.
func pinInvariants(scr *RunScratch, res Result, pages map[units.ProcID][]units.VPN) error {
	m := scr.run.cfg.Mechanism
	var pinned int64
	// agree checks one process: recorded(vpn) is the design's own record
	// of vpn — whether it holds the page as pinned, and the frame it
	// holds for it.
	agree := func(invariant string, sp hostos.Space, recorded func(units.VPN) (units.PFN, bool)) error {
		n := 0
		for _, vpn := range pages[sp.PID()] {
			pfn, ok := recorded(vpn)
			if ok != sp.Pinned(vpn) {
				return fmt.Errorf("%v: %s: pid %d page %#x recorded %v, pinned %v", m, invariant, sp.PID(), vpn, ok, !ok)
			}
			if !ok {
				continue
			}
			n++
			if want, _ := sp.Translate(vpn); pfn != want {
				return fmt.Errorf("%v: %s: pid %d page %#x recorded as frame %d, mapped to %d", m, invariant, sp.PID(), vpn, pfn, want)
			}
		}
		if n != sp.PinnedPages() {
			return fmt.Errorf("%v: %s: pid %d pins %d pages, %d of them its trace's", m, invariant, sp.PID(), sp.PinnedPages(), n)
		}
		pinned += int64(n)
		return nil
	}
	switch m {
	case UTLB:
		d := &scr.shared
		for _, lib := range d.libs {
			table := d.drv.TableOf(lib.Proc().PID())
			if err := agree("bit vector == pinned set", lib.Proc().Space(), func(vpn units.VPN) (units.PFN, bool) {
				pfn, _ := table.Lookup(vpn)
				return pfn, lib.Pinned(vpn)
			}); err != nil {
				return err
			}
		}
	case Interrupt:
		d := &scr.interrupt
		for _, p := range d.procs {
			pid := p.proc.PID()
			if err := agree("pinned pages == cached keys", p.proc.Space(), func(vpn units.VPN) (units.PFN, bool) {
				return d.cache.Peek(tlbcache.Key{PID: pid, VPN: vpn})
			}); err != nil {
				return err
			}
		}
		if occ := d.cache.Occupancy(); int64(occ) != pinned {
			return fmt.Errorf("%v: pinned pages == cached keys: %d keys cached, %d pages pinned", m, occ, pinned)
		}
	case PerProcess:
		for i := range scr.perProcess.slots {
			s := &scr.perProcess.slots[i]
			if err := agree("table slots == tree entries == pinned pages", s.proc.Space(), func(vpn units.VPN) (units.PFN, bool) {
				idx, ok := s.tree.Lookup(vpn)
				if !ok {
					return units.NoPFN, false
				}
				return s.table[idx], true
			}); err != nil {
				return err
			}
			valid := 0
			for _, pfn := range s.table {
				if pfn != units.NoPFN {
					valid++
				}
			}
			if pins := s.proc.Space().PinnedPages(); valid != pins {
				return fmt.Errorf("%v: table slots == tree entries == pinned pages: pid %d has %d valid slots, %d pinned pages",
					m, s.proc.PID(), valid, pins)
			}
		}
	default:
		return fmt.Errorf("%v: no pin invariants for this design", m)
	}
	if res.Pins-res.Unpins != pinned {
		return fmt.Errorf("%v: pins − unpins == pinned pages: %d − %d, %d pinned", m, res.Pins, res.Unpins, pinned)
	}
	return nil
}

// TestDesignPinInvariants runs every registered design over the seven
// applications × {1K, 4K} entries × {no limit, a 64-page pin limit} ×
// {sequential, overlap on 2 channels} and checks the pin state each run
// leaves behind (pinInvariants). A new design must say here what its
// pinned pages are.
func TestDesignPinInvariants(t *testing.T) {
	scr := NewRunScratch()
	for i := range designs {
		m := Mechanism(i)
		var unpins int64
		for _, app := range workload.Names() {
			tr := smallTrace(t, app, 0.05)
			pages := tracePages(tr)
			for _, entries := range []int{1024, 4096} {
				for _, limit := range []int{0, 64} {
					for _, channels := range []int{0, 2} {
						c := designCfg(m, entries)
						c.PinLimitPages = limit
						c.Overlap = OverlapConfig{Enabled: channels > 0, DMAChannels: channels}
						name := fmt.Sprintf("%s/%d/limit%d/ch%d", app, entries, limit, channels)
						res, err := RunWith(tr, c, scr)
						if err != nil {
							t.Fatalf("%v/%s: %v", m, name, err)
						}
						if err := pinInvariants(scr, res, pages); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						unpins += res.Unpins
					}
				}
			}
		}
		if unpins == 0 {
			t.Errorf("%v never unpinned: its eviction paths went unchecked", m)
		}
		t.Logf("%v: %d unpins checked", m, unpins)
	}
}

// leakyInterrupt is the interrupt baseline with one step of its miss
// handler left out: a fill that displaces another entry leaves that
// entry's page pinned.
type leakyInterrupt struct{ *interrupt }

func (m leakyInterrupt) translate(s int, vpns []units.VPN, infos []core.TranslateInfo) error {
	for i, vpn := range vpns {
		key := tlbcache.Key{PID: m.r.pids[s], VPN: vpn}
		if core.Probe(m.r.nic, m.cache, m.r.tap, key, true).Hit {
			m.procs[s].policy.Touch(vpn)
			infos[i] = core.TranslateInfo{Hit: true}
			continue
		}
		pfn, err := m.pin(s, vpn)
		if err != nil {
			return err
		}
		m.cache.Insert(key, pfn) // what this displaces is never unpinned
		infos[i] = core.TranslateInfo{}
	}
	return nil
}

// TestPinInvariantsCatchALeak is the negative control: registered in
// the baseline's place, leakyInterrupt fails pinInvariants by name.
func TestPinInvariantsCatchALeak(t *testing.T) {
	build := designs[Interrupt].build
	designs[Interrupt].build = func(r *run) (mechanism, int, error) {
		m, width, err := build(r)
		if err != nil {
			return nil, 0, err
		}
		return leakyInterrupt{m.(*interrupt)}, width, nil
	}
	defer func() { designs[Interrupt].build = build }()

	tr := smallTrace(t, "fft", 0.05)
	scr := NewRunScratch()
	res, err := RunWith(tr, cfg(Interrupt, 256), scr)
	if err != nil {
		t.Fatal(err)
	}
	const want = "Intr: pinned pages == cached keys"
	if err := pinInvariants(scr, res, tracePages(tr)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a baseline that leaves displaced pages pinned: got %v, want an error naming %q", err, want)
	} else {
		t.Logf("caught: %v", err)
	}
}
