package core

import (
	"testing"

	"utlb/internal/units"
)

func TestLookupTreeBasics(t *testing.T) {
	r := newRig(t, 1024)
	var tree LookupTree
	tree.Reset(r.host.Costs(), r.host.Clock())
	if _, ok := tree.Lookup(5); ok {
		t.Error("hit in empty tree")
	}
	tree.Set(5, 42)
	if idx, ok := tree.Lookup(5); !ok || idx != 42 {
		t.Errorf("Lookup = %d, %v", idx, ok)
	}
	tree.Clear(5)
	if _, ok := tree.Lookup(5); ok {
		t.Error("cleared entry still present")
	}
	tree.Clear(99999) // clearing an absent leaf is a no-op
	// Reset empties the tree but keeps its leaves.
	tree.Set(7, 3)
	tree.Reset(r.host.Costs(), r.host.Clock())
	if _, ok := tree.Lookup(7); ok || tree.dir[0] == nil {
		t.Errorf("after Reset: entry present %v, leaf kept %v", ok, tree.dir[0] != nil)
	}
}

func TestLookupTreeChargesTwoReferences(t *testing.T) {
	r := newRig(t, 1024)
	var tree LookupTree
	tree.Reset(r.host.Costs(), r.host.Clock())
	before := r.host.Clock().Now()
	tree.Lookup(0)
	if got := r.host.Clock().Now() - before; got != 2*r.host.Costs().BitWordProbe {
		t.Errorf("lookup charged %v, want two word probes", got)
	}
}

// Reset empties every leaf Set wrote since the last Reset, in any
// directory slot, and leaves from earlier runs stay empty.
func TestLookupTreeResetEmptiesEveryLeaf(t *testing.T) {
	r := newRig(t, 1024)
	var tree LookupTree
	for run, vpns := range [][]units.VPN{{5, 99999}, {2048}, {VASpacePages - 1, 0}} {
		tree.Reset(r.host.Costs(), r.host.Clock())
		for _, vpn := range vpns {
			tree.Set(vpn, run)
		}
		tree.Reset(r.host.Costs(), r.host.Clock())
		for di, leaf := range tree.dir {
			for i, idx := range leaf {
				if idx != noIndex {
					t.Fatalf("run %d: slot %d of leaf %d = %d after Reset", run, i, di, idx)
				}
			}
		}
	}
}
