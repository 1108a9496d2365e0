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
	if _, ok := tree.Lookup(99999); ok {
		t.Error("clearing an absent page made it present")
	}
	tree.Set(7, 3)
	tree.Reset(r.host.Costs(), r.host.Clock())
	if _, ok := tree.Lookup(7); ok {
		t.Error("after Reset: entry present")
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

// Reset empties every page Set wrote since the last Reset, in any
// directory slot, and pages from earlier runs stay empty.
func TestLookupTreeResetEmptiesEveryLeaf(t *testing.T) {
	r := newRig(t, 1024)
	var tree LookupTree
	var written []units.VPN
	for run, vpns := range [][]units.VPN{{5, 99999}, {2048}, {VASpacePages - 1, 0}} {
		tree.Reset(r.host.Costs(), r.host.Clock())
		for _, vpn := range vpns {
			tree.Set(vpn, run)
		}
		written = append(written, vpns...)
		tree.Reset(r.host.Costs(), r.host.Clock())
		for _, vpn := range written {
			if idx, ok := tree.Lookup(vpn); ok {
				t.Fatalf("run %d: page %d = %d after Reset", run, vpn, idx)
			}
		}
	}
}
