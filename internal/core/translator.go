package core

import (
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// TranslateInfo describes one NIC-side translation.
type TranslateInfo struct {
	// Hit reports a Shared UTLB-Cache hit.
	Hit bool
	// Probes is the number of cache entries the firmware examined.
	Probes int
	// Fetched is the number of entries DMAed from the host table on a
	// miss (prefetch width, clamped at the second-level table edge).
	Fetched int
	// Garbage reports that the translation resolved to the garbage
	// frame: the page was not pinned. The transfer still proceeds —
	// "at worst, the network interface transfers data to and from an
	// unused garbage page; no harm is done" (§4.2).
	Garbage bool
}

// Translator is the NIC firmware's translation lookup (§3.3): probe
// the Shared UTLB-Cache; on a miss, one SRAM reference reads the
// process' page directory and one DMA fetches entries from the
// second-level table in host memory.
type Translator struct {
	drv *Driver
	// prefetch is how many consecutive entries each miss fetches
	// (§6.4); 1 disables prefetching.
	prefetch int
}

// NewTranslator returns a translator over the driver's cache and
// tables. prefetch < 1 is treated as 1.
func NewTranslator(drv *Driver, prefetch int) *Translator {
	if prefetch < 1 {
		prefetch = 1
	}
	return &Translator{drv: drv, prefetch: prefetch}
}

// Translate resolves (pid, vpn) to a physical frame, charging all NIC
// costs. It never fails: unpinned pages resolve to the garbage frame.
func (tr *Translator) Translate(pid units.ProcID, vpn units.VPN) (units.PFN, TranslateInfo) {
	return tr.translate(pid, nil, vpn, true)
}

// TranslateBatch resolves a batch of same-process vpns in one firmware
// dispatch: the first entry pays the full LookupBase entry cost, every
// later entry only the per-entry BatchEntry increment; probes,
// directory references and miss fills are charged per entry as always.
// Results land in pfns/infos, which must be at least len(vpns) long. A
// one-entry batch is cost- and event-identical to Translate.
func (tr *Translator) TranslateBatch(pid units.ProcID, vpns []units.VPN, pfns []units.PFN, infos []TranslateInfo) {
	for i, vpn := range vpns {
		pfns[i], infos[i] = tr.translate(pid, nil, vpn, i == 0)
	}
}

// TranslateBatchIn is TranslateBatch for the process of t (Lib.Table).
func (tr *Translator) TranslateBatchIn(t *Table, vpns []units.VPN, pfns []units.PFN, infos []TranslateInfo) {
	for i, vpn := range vpns {
		pfns[i], infos[i] = tr.translate(t.pid, t, vpn, i == 0)
	}
}

// Probe is the firmware's probe phase, the NIC cost every translation
// pays, hit or miss, in every design built on a NIC translation cache:
// the lookup entry cost (LookupBase for the first entry of a dispatch,
// BatchEntry for each later one), the cache lookup, and one SRAM probe
// per examined entry. It is recorded as one ni_probe span so the
// critical-path breakdown can separate probe time from the miss-only
// fill, and compares like with like across designs.
func Probe(nic *nicsim.NIC, cache *tlbcache.Cache, tap *obs.Tap, key tlbcache.Key, first bool) tlbcache.Result {
	start := nic.Clock().Now()
	if first {
		nic.ChargeLookupBase()
	} else {
		nic.ChargeBatchEntry()
	}
	res := cache.Lookup(key)
	nic.ChargeProbes(res.Probes)
	tap.Span(obs.KindNIProbe, start, nic.Clock().Now()-start, key.PID, uint64(res.Probes), 0)
	return res
}

// translate resolves (pid, vpn); a miss finds pid's table unless given.
func (tr *Translator) translate(pid units.ProcID, table *Table, vpn units.VPN, first bool) (units.PFN, TranslateInfo) {
	nic := tr.drv.NIC()
	cache := tr.drv.Cache()

	res := Probe(nic, cache, tr.drv.tap, tlbcache.Key{PID: pid, VPN: vpn}, first)
	if res.Hit {
		return res.PFN, TranslateInfo{Hit: true, Probes: res.Probes}
	}
	info := TranslateInfo{Probes: res.Probes}

	// Miss: one SRAM reference for the page directory...
	nic.ChargeDirectoryProbe()
	if table == nil {
		table = tr.drv.TableOf(pid)
	}
	if table == nil {
		// Unregistered process: garbage semantics, nothing to fetch.
		info.Garbage = true
		return tr.drv.Garbage(), info
	}
	entryAddr, ok := table.EntryAddr(vpn)
	if !ok {
		// No second-level table yet: the page was never pinned.
		info.Garbage = true
		return tr.drv.Garbage(), info
	}

	// ...and one DMA for the entries, prefetching within the
	// second-level table.
	count := tr.prefetch
	if rem := L2Entries - int(vpn)%L2Entries; count > rem {
		count = rem
	}
	words := nic.FetchEntries(entryAddr, count)
	info.Fetched = count

	// Install the valid fetched entries. Invalid (garbage) entries are
	// not cached: a later pin must not be shadowed by a stale line.
	installed := 0
	for i, w := range words {
		pfn, valid := DecodeEntry(w)
		if !valid {
			continue
		}
		cache.Insert(tlbcache.Key{PID: pid, VPN: vpn + units.VPN(i)}, pfn)
		installed++
	}
	nic.ChargeInstall(installed)

	pfn, valid := DecodeEntry(words[0])
	if !valid {
		info.Garbage = true
		return tr.drv.Garbage(), info
	}
	return pfn, info
}
