package svm

import (
	"bytes"
	"fmt"

	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vmmc"
)

// Peer is one SVM process: the per-process protocol state (page
// states, twins, dirty set) plus its VMMC handle.
type Peer struct {
	sys  *System
	idx  int
	proc *vmmc.Proc

	export  vmmc.BufferID
	imports []*vmmc.Imported

	state []pageState
	// twins holds pre-write page snapshots for diffing.
	twins map[int][]byte
	dirty []int
	// syncEpoch is the last interval this peer synchronised with.
	syncEpoch int64

	// protocol counters
	fetches   int64
	diffBytes int64
}

// Index reports the peer's rank.
func (p *Peer) Index() int { return p.idx }

// Proc exposes the underlying VMMC process (for UTLB statistics).
func (p *Peer) Proc() *vmmc.Proc { return p.proc }

// Fetches and DiffBytes report protocol activity.
func (p *Peer) Fetches() int64   { return p.fetches }
func (p *Peer) DiffBytes() int64 { return p.diffBytes }

func (p *Peer) pageVA(pg int) units.VAddr {
	return p.sys.cfg.Base + units.VAddr(pg)*units.PageSize
}

func (p *Peer) checkPage(pg int) {
	if pg < 0 || pg >= p.sys.cfg.RegionPages {
		panic(fmt.Sprintf("svm: page %d outside region of %d pages", pg, p.sys.cfg.RegionPages))
	}
}

// fault validates the page for reading: invalid pages fetch the master
// copy from home over VMMC (the remote read the paper's traces log).
func (p *Peer) fault(pg int) error {
	p.checkPage(pg)
	if p.state[pg] != pageInvalid {
		return nil
	}
	home := p.sys.home(pg)
	if home == p.idx {
		// Home copies never invalidate; flushes keep them current.
		p.state[pg] = pageClean
		return nil
	}
	off := pg * units.PageSize
	va := p.pageVA(pg)
	p.sys.tracer.record(p, trace.Fetch, va, units.PageSize)
	if err := p.proc.Fetch(p.imports[home], off, va, units.PageSize); err != nil {
		return fmt.Errorf("svm: fetching page %d from home %d: %w", pg, home, err)
	}
	p.fetches++
	p.state[pg] = pageClean
	return nil
}

// twin snapshots a page before its first write in the interval.
func (p *Peer) twin(pg int) error {
	if p.state[pg] == pageDirty {
		return nil
	}
	data, err := p.proc.Read(p.pageVA(pg), units.PageSize)
	if err != nil {
		return err
	}
	p.twins[pg] = data
	p.state[pg] = pageDirty
	p.dirty = append(p.dirty, pg)
	return nil
}

// ReadPage returns a copy of a shared page, faulting it in if needed.
func (p *Peer) ReadPage(pg int) ([]byte, error) {
	if err := p.fault(pg); err != nil {
		return nil, err
	}
	return p.proc.Read(p.pageVA(pg), units.PageSize)
}

// Read returns n bytes at byte offset off in the shared region.
func (p *Peer) Read(off, n int) ([]byte, error) {
	if n < 0 || off < 0 || off+n > p.sys.cfg.RegionPages*units.PageSize {
		return nil, fmt.Errorf("svm: read [%d,+%d) outside region", off, n)
	}
	first := off / units.PageSize
	last := (off + n - 1) / units.PageSize
	for pg := first; pg <= last; pg++ {
		if err := p.fault(pg); err != nil {
			return nil, err
		}
	}
	return p.proc.Read(p.sys.cfg.Base+units.VAddr(off), n)
}

// Write stores data at byte offset off in the shared region, twinning
// each touched page on its first write of the interval.
func (p *Peer) Write(off int, data []byte) error {
	if off < 0 || off+len(data) > p.sys.cfg.RegionPages*units.PageSize {
		return fmt.Errorf("svm: write [%d,+%d) outside region", off, len(data))
	}
	if len(data) == 0 {
		return nil
	}
	first := off / units.PageSize
	last := (off + len(data) - 1) / units.PageSize
	for pg := first; pg <= last; pg++ {
		if err := p.fault(pg); err != nil {
			return err
		}
		if err := p.twin(pg); err != nil {
			return err
		}
	}
	return p.proc.Write(p.sys.cfg.Base+units.VAddr(off), data)
}

// flushDirty is the release operation: diff every dirty page against
// its twin and remote-store just the changed runs into the home's
// master copy. Home-local dirty pages only update the manager's
// write notices (the master copy is already current).
func (p *Peer) flushDirty() error {
	for _, pg := range p.dirty {
		cur, err := p.proc.Read(p.pageVA(pg), units.PageSize)
		if err != nil {
			return err
		}
		runs := diffRuns(p.twins[pg], cur)
		home := p.sys.home(pg)
		if home != p.idx {
			for _, r := range runs {
				va := p.pageVA(pg) + units.VAddr(r.off)
				p.sys.tracer.record(p, trace.Send, va, r.len)
				if err := p.proc.Send(p.imports[home], pg*units.PageSize+r.off, va, r.len); err != nil {
					return fmt.Errorf("svm: flushing page %d run +%d: %w", pg, r.off, err)
				}
				p.diffBytes += int64(r.len)
			}
			// The cached copy goes back to clean; notices may
			// invalidate it below.
			p.state[pg] = pageClean
		} else {
			p.state[pg] = pageClean
		}
		if len(runs) > 0 {
			p.sys.pageEpoch[pg] = p.sys.epoch + 1
		}
		delete(p.twins, pg)
	}
	p.dirty = p.dirty[:0]
	return nil
}

// applyWriteNotices invalidates cached copies of pages written since
// the peer's last synchronisation. Home pages are exempt: diffs land
// in the master copy directly.
func (p *Peer) applyWriteNotices() {
	for pg := 0; pg < p.sys.cfg.RegionPages; pg++ {
		if p.sys.home(pg) == p.idx {
			continue
		}
		if p.sys.pageEpoch[pg] > p.syncEpoch && p.state[pg] == pageClean {
			p.state[pg] = pageInvalid
		}
	}
}

// run is one contiguous modified byte range of a diffed page.
type run struct {
	off, len int
}

// diffRuns compares a twin against the current page contents and
// returns the modified runs, merging runs separated by fewer than 8
// unchanged bytes (a real diff transfers word-granular records; tiny
// gaps are cheaper to resend than to fragment).
func diffRuns(twin, cur []byte) []run {
	const mergeGap = 8
	var runs []run
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) {
			if twin[i] != cur[i] {
				i++
				continue
			}
			// Lookahead: merge across short unchanged gaps.
			j := i
			for j < len(cur) && j < i+mergeGap && twin[j] == cur[j] {
				j++
			}
			if j < len(cur) && j < i+mergeGap {
				i = j
				continue
			}
			break
		}
		runs = append(runs, run{off: start, len: i - start})
	}
	return runs
}

// pagesEqual reports whether two byte slices match (test helper used
// across files).
func pagesEqual(a, b []byte) bool { return bytes.Equal(a, b) }
