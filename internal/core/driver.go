package core

import (
	"fmt"

	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// Driver is the VMMC/UTLB device driver (§4.2): the only kernel
// component the mechanism needs. It owns the garbage page, allocates a
// hierarchical translation table per registered process, and exposes
// the pin/unpin ioctl that installs translations. No other OS
// modification exists, matching the paper's portability claim.
type Driver struct {
	host    *hostos.Host
	nic     *nicsim.NIC
	cache   *tlbcache.Cache
	garbage units.PFN
	tables  []*Table // registration order; a node hosts a handful of processes

	// tap is where the driver, its libraries and the firmware
	// translator record; nil — the default — records nothing.
	tap *obs.Tap
}

// NewDriver initialises the driver on host/nic: it allocates and pins
// the garbage frame, builds the Shared UTLB-Cache with cacheCfg, and
// reserves the cache's NIC SRAM.
func NewDriver(host *hostos.Host, nic *nicsim.NIC, cacheCfg tlbcache.Config) (*Driver, error) {
	return NewDriverWith(host, nic, cacheCfg, nil)
}

// NewDriverWith is NewDriver with the cache built over st, recycling
// one run's cache line records into the next (nil allocates fresh).
func NewDriverWith(host *hostos.Host, nic *nicsim.NIC, cacheCfg tlbcache.Config, st *tlbcache.Storage) (*Driver, error) {
	if err := cacheCfg.Validate(); err != nil {
		return nil, err
	}
	garbage, err := host.Memory().Alloc()
	if err != nil {
		return nil, fmt.Errorf("core: allocating garbage page: %w", err)
	}
	cache := tlbcache.NewWith(cacheCfg, st)
	if err := nic.ReserveSRAM(cache.SRAMBytes()); err != nil {
		return nil, fmt.Errorf("core: reserving cache SRAM: %w", err)
	}
	return &Driver{
		host:    host,
		nic:     nic,
		cache:   cache,
		garbage: garbage,
	}, nil
}

// SetTap attaches the recording handle to the driver, the libraries and
// translators built on it, and the Shared UTLB-Cache it owns, which
// stamps its events on the NIC clock. nil detaches.
func (d *Driver) SetTap(t *obs.Tap) {
	d.tap = t
	d.cache.SetTap(t, d.nic.Clock())
}

// Host returns the driver's host.
func (d *Driver) Host() *hostos.Host { return d.host }

// NIC returns the driver's network interface.
func (d *Driver) NIC() *nicsim.NIC { return d.nic }

// Cache returns the Shared UTLB-Cache.
func (d *Driver) Cache() *tlbcache.Cache { return d.cache }

// Garbage returns the garbage frame invalid translations point at.
func (d *Driver) Garbage() units.PFN { return d.garbage }

// Register gives proc a translation table, drawn from scr, and reserves
// its directory's NIC SRAM. Registering twice is a caller bug.
func (d *Driver) Register(proc *hostos.Process, scr *LibScratch) (*Table, error) {
	pid := proc.PID()
	if d.TableOf(pid) != nil {
		return nil, fmt.Errorf("core: pid %d already registered", pid)
	}
	if err := d.nic.ReserveSRAM(DirSRAMBytes); err != nil {
		return nil, fmt.Errorf("core: reserving directory SRAM for pid %d: %w", pid, err)
	}
	t := scr.takeTable(pid, d.host.Memory(), d.garbage)
	d.tables = append(d.tables, t)
	return t, nil
}

// TableOf returns the translation table of pid, or nil.
func (d *Driver) TableOf(pid units.ProcID) *Table {
	for _, t := range d.tables {
		if t.pid == pid {
			return t
		}
	}
	return nil
}

// IoctlPin is the pin-and-install ioctl of Figure 2, step 2: lock the
// pages in physical memory and fill their translation entries. The
// syscall and per-page pin time is charged by the host; table writes
// ride inside that cost. On failure nothing stays pinned.
func (d *Driver) IoctlPin(proc *hostos.Process, vpns []units.VPN) ([]units.PFN, error) {
	t := d.TableOf(proc.PID())
	if t == nil {
		return nil, fmt.Errorf("core: pid %d not registered", proc.PID())
	}
	pfns, err := d.host.PinPages(proc, vpns)
	if err != nil {
		return nil, err
	}
	for i, vpn := range vpns {
		if err := t.Install(vpn, pfns[i]); err != nil {
			// Table memory exhausted: undo the pins and fail whole. A
			// failed rollback is reported alongside, not fatal — the
			// caller sees both and the node degrades instead of
			// crashing.
			if uerr := d.host.UnpinPages(proc, vpns); uerr != nil {
				err = fmt.Errorf("%w (rollback unpin also failed: %v)", err, uerr)
			}
			for _, done := range vpns[:i] {
				t.Invalidate(done)
				d.cache.Invalidate(tlbcache.Key{PID: proc.PID(), VPN: done})
			}
			return nil, err
		}
	}
	return pfns, nil
}

// IoctlUnpin releases pages: the translation entries revert to the
// garbage frame, any cached copies on the NIC are invalidated (the
// consistency obligation of §2: host and NIC translations must agree),
// and the pages unpin.
func (d *Driver) IoctlUnpin(proc *hostos.Process, vpns []units.VPN) error {
	t := d.TableOf(proc.PID())
	if t == nil {
		return fmt.Errorf("core: pid %d not registered", proc.PID())
	}
	if err := d.host.UnpinPages(proc, vpns); err != nil {
		return err
	}
	for _, vpn := range vpns {
		t.Invalidate(vpn)
		d.cache.Invalidate(tlbcache.Key{PID: proc.PID(), VPN: vpn})
	}
	return nil
}
