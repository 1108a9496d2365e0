package core

import (
	"fmt"

	"utlb/internal/units"
)

// This file implements the end of §3.3: "In rare situations, the
// second-level translation tables in the Hierarchical-UTLB occupy too
// much physical memory. A solution ... is to manage the second-level
// translation tables in the same manner as virtual memory paging. One
// bit of information is added to each entry in the top-level directory
// which indicates whether the second-level table is in physical memory
// or on the disk. If the second-level table is swapped out, the
// directory entry contains the disk block number instead of the
// physical address ... the network interface ... can interrupt the
// host OS to bring in the page."

// Disk simulates the paging device second-level tables swap to. One
// block holds one table frame.
type Disk struct {
	blocks    map[int64][]byte
	nextBlock int64
	// AccessTime is the charge for one block read or write.
	AccessTime units.Time

	reads, writes int64
}

// DefaultDiskAccessTime models a late-90s disk: ~5 ms per access.
const DefaultDiskAccessTime = 5 * units.Millisecond

// NewDisk returns an empty paging device.
func NewDisk(accessTime units.Time) *Disk {
	return &Disk{blocks: make(map[int64][]byte), nextBlock: 1, AccessTime: accessTime}
}

// write stores data in a fresh block and returns its number.
func (d *Disk) write(data []byte) int64 {
	b := d.nextBlock
	d.nextBlock++
	d.blocks[b] = append([]byte(nil), data...)
	d.writes++
	return b
}

// read returns a copy of a block's contents.
func (d *Disk) read(block int64) ([]byte, error) {
	data, ok := d.blocks[block]
	if !ok {
		return nil, fmt.Errorf("core: disk block %d not found", block)
	}
	d.reads++
	return append([]byte(nil), data...), nil
}

// free releases a block.
func (d *Disk) free(block int64) { delete(d.blocks, block) }

// Reads and Writes report block I/O counts.
func (d *Disk) Reads() int64  { return d.reads }
func (d *Disk) Writes() int64 { return d.writes }

// Blocks reports how many blocks are currently in use.
func (d *Disk) Blocks() int { return len(d.blocks) }

// AttachDisk enables second-level table paging for the table. Without
// a disk, SwapOut fails.
func (t *Table) AttachDisk(d *Disk) { t.disk = d }

// Disk returns the attached paging device, or nil.
func (t *Table) Disk() *Disk { return t.disk }

// SwappedTables reports how many second-level tables are on disk.
func (t *Table) SwappedTables() int { return t.swapped }

// ResidentTables reports how many second-level tables are in memory.
func (t *Table) ResidentTables() int { return len(t.l2frames) }

// SwapOut writes the second-level table covering vpn to disk and frees
// its frame. Its directory slot keeps the disk block number with the
// swapped bit set. Tables with any pinned (valid) entry must not be
// swapped: the NIC could need them without host help mid-transfer, so
// the caller (the driver's memory-pressure path) only swaps fully
// invalid tables... unless force is set, in which case a later NIC
// miss takes the interrupt path to bring the table back.
func (t *Table) SwapOut(vpn units.VPN, force bool) error {
	if t.disk == nil {
		return fmt.Errorf("core: no paging disk attached")
	}
	di := t.dirIndex(vpn)
	if !t.present[di] {
		return fmt.Errorf("core: second-level table for %#x not resident", vpn)
	}
	if t.swappedBit[di] {
		return fmt.Errorf("core: second-level table for %#x already swapped", vpn)
	}
	if !force && t.liveEntries(di) > 0 {
		return fmt.Errorf("core: second-level table for %#x has valid entries", vpn)
	}
	base := t.dir[di]
	frame := base.PageOf()
	data := t.mem.Read(base, units.PageSize)
	block := t.disk.write(data)

	// Release the frame and remember the block.
	t.removeL2Frame(frame)
	t.mem.Free(frame)
	t.dir[di] = units.PAddr(block)
	t.swappedBit[di] = true
	t.swapped++
	return nil
}

// SwapIn brings the second-level table covering vpn back into a fresh
// frame. It is invoked from the host side (the NIC interrupts on a
// swapped directory entry).
func (t *Table) SwapIn(vpn units.VPN) error {
	if t.disk == nil {
		return fmt.Errorf("core: no paging disk attached")
	}
	di := t.dirIndex(vpn)
	if !t.present[di] || !t.swappedBit[di] {
		return fmt.Errorf("core: second-level table for %#x not swapped", vpn)
	}
	block := int64(t.dir[di])
	data, err := t.disk.read(block)
	if err != nil {
		return err
	}
	frame, err := t.mem.Alloc()
	if err != nil {
		return fmt.Errorf("core: swap-in allocation: %w", err)
	}
	t.disk.free(block)
	t.mem.Write(frame.Addr(), data)
	t.l2frames = append(t.l2frames, frame)
	t.dir[di] = frame.Addr()
	t.swappedBit[di] = false
	t.swapped--
	return nil
}

// Swapped reports whether vpn's second-level table is on disk.
func (t *Table) Swapped(vpn units.VPN) bool {
	di := t.dirIndex(vpn)
	return t.present[di] && t.swappedBit[di]
}

// liveEntries counts valid entries in a resident second-level table.
func (t *Table) liveEntries(di int) int {
	base := t.dir[di]
	n := 0
	for i := 0; i < L2Entries; i++ {
		if _, valid := DecodeEntry(t.mem.ReadWord(base + units.PAddr(i*8))); valid {
			n++
		}
	}
	return n
}

func (t *Table) removeL2Frame(frame units.PFN) {
	for i, f := range t.l2frames {
		if f == frame {
			t.l2frames = append(t.l2frames[:i], t.l2frames[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("core: frame %d not an L2 frame of this table", frame))
}
