package workload

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"utlb/internal/units"
)

func TestSpecsMatchTable3(t *testing.T) {
	// The calibration targets are the paper's Table 3 values.
	want := map[string][2]int{
		"fft":           {10803, 43132},
		"lu":            {12507, 25198},
		"barnes":        {2235, 35904},
		"radix":         {6393, 11775},
		"raytrace":      {6319, 14594},
		"volrend":       {2371, 9438},
		"water-spatial": {1890, 8488},
	}
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("Specs() = %d apps", len(specs))
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected app %q", s.Name)
			continue
		}
		if s.FootprintPages != w[0] || s.Lookups != w[1] {
			t.Errorf("%s: footprint/lookups = %d/%d, want %d/%d",
				s.Name, s.FootprintPages, s.Lookups, w[0], w[1])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("fft")
	if err != nil || s.Name != "fft" {
		t.Errorf("ByName(fft) = %v, %v", s, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown app accepted")
	}
	if len(Names()) != 7 {
		t.Errorf("Names() = %v", Names())
	}
}

// Each generated node trace must land on the Table 3 calibration
// within a small tolerance (exactify may fold a few pages).
func TestGenerateHitsCalibration(t *testing.T) {
	for _, s := range Specs() {
		tr := s.Generate(Config{Node: 0, FirstPID: 1, Seed: 1})
		lookups, footprint := tr.Lookups(), tr.Footprint()
		if math.Abs(float64(lookups-s.Lookups))/float64(s.Lookups) > 0.01 {
			t.Errorf("%s: lookups = %d, want ~%d", s.Name, lookups, s.Lookups)
		}
		if math.Abs(float64(footprint-s.FootprintPages))/float64(s.FootprintPages) > 0.02 {
			t.Errorf("%s: footprint = %d, want ~%d", s.Name, footprint, s.FootprintPages)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("radix")
	cfg := Config{Node: 0, FirstPID: 1, Seed: 7, Scale: 0.1}
	a := s.Generate(cfg)
	b := s.Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different traces")
	}
	c := s.Generate(Config{Node: 0, FirstPID: 1, Seed: 8, Scale: 0.1})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateStructure(t *testing.T) {
	s, _ := ByName("barnes")
	tr := s.Generate(Config{Node: 2, FirstPID: 11, Seed: 3, Scale: 0.1})
	pids := tr.PIDs()
	if len(pids) != ProcsPerNode {
		t.Fatalf("PIDs = %v, want %d processes", pids, ProcsPerNode)
	}
	for i, pid := range pids {
		if pid != units.ProcID(11+i) {
			t.Errorf("pid[%d] = %d", i, pid)
		}
	}
	// Serialised by timestamp.
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatal("trace not time-sorted")
		}
		if tr[i].Node != 2 {
			t.Fatal("wrong node id")
		}
	}
	// SVM transfers are one page per operation.
	for _, r := range tr[:10] {
		if r.Bytes != units.PageSize {
			t.Errorf("Bytes = %d", r.Bytes)
		}
	}
}

func TestAppProcessesShareVALayout(t *testing.T) {
	// SPMD: the same VPNs must appear under different PIDs — the
	// source of direct-nohash conflicts.
	s, _ := ByName("fft")
	tr := s.Generate(Config{Node: 0, FirstPID: 1, Seed: 1, Scale: 0.05})
	perPID := map[units.ProcID]map[units.VPN]bool{}
	for _, r := range tr {
		if perPID[r.PID] == nil {
			perPID[r.PID] = map[units.VPN]bool{}
		}
		perPID[r.PID][r.VA.PageOf()] = true
	}
	shared := 0
	for vpn := range perPID[1] {
		if perPID[2][vpn] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("app processes do not overlap in VA space")
	}
}

func TestGenerateCluster(t *testing.T) {
	s, _ := ByName("volrend")
	tr := s.GenerateCluster(2, 5, 0.05)
	nodes := map[units.NodeID]bool{}
	for _, r := range tr {
		nodes[r.Node] = true
	}
	if len(nodes) != 2 {
		t.Errorf("nodes = %v", nodes)
	}
	if got := len(tr.PIDs()); got != 2*ProcsPerNode {
		t.Errorf("distinct pids = %d", got)
	}
}

func TestPatternsStayInRange(t *testing.T) {
	pats := map[string]func(*rand.Rand, int, int) []int{
		"fft": fftPattern, "lu": luPattern, "barnes": barnesPattern,
		"radix": radixPattern, "raytrace": raytracePattern,
		"volrend": volrendPattern, "water": waterPattern,
		"protocol": protocolPattern,
	}
	for name, f := range pats {
		for _, footprint := range []int{1, 7, 100} {
			span := footprint
			if name == "fft" {
				span = footprint * fftInterleave // strided with holes
			}
			seq := f(rand.New(rand.NewSource(1)), footprint, 500)
			for _, p := range seq {
				if p < 0 || p >= span {
					t.Fatalf("%s: page %d outside [0,%d)", name, p, span)
				}
			}
			if len(seq) == 0 {
				t.Errorf("%s: empty sequence", name)
			}
		}
		if got := f(rand.New(rand.NewSource(1)), 0, 10); got != nil {
			t.Errorf("%s: zero footprint should yield nil", name)
		}
	}
}

// sortedKeys is the distinct pages of a sequence, in order.
func sortedKeys(seq []int) []int {
	set := map[int]bool{}
	for _, p := range seq {
		set[p] = true
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func TestExactify(t *testing.T) {
	seq := exactify([]int{0, 0, 0, 5, 9}, 4, 8)
	if len(seq) != 8 {
		t.Fatalf("len = %d", len(seq))
	}
	distinct := sortedKeys(seq)
	if len(distinct) != 4 {
		t.Errorf("distinct = %v, want 4 pages", distinct)
	}
	for _, p := range seq {
		if p < 0 || p >= 10 {
			t.Errorf("page %d out of sanity range", p)
		}
	}
	// Degenerate input.
	seq = exactify(nil, 2, 3)
	if len(seq) != 3 || len(sortedKeys(seq)) != 2 {
		t.Errorf("degenerate exactify = %v", seq)
	}
}

func TestRegularityFlags(t *testing.T) {
	// §6.5: FFT and LU are the regular applications.
	for _, s := range Specs() {
		wantRegular := s.Name == "fft" || s.Name == "lu"
		if s.Regular != wantRegular {
			t.Errorf("%s: Regular = %v", s.Name, s.Regular)
		}
	}
}

func TestFFTIsStrided(t *testing.T) {
	// Consecutive FFT accesses must jump by a large stride: that is
	// the property that defeats sequential pre-pinning.
	seq := fftPattern(rand.New(rand.NewSource(1)), 1000, 500)
	bigJumps := 0
	for i := 1; i < len(seq); i++ {
		if d := seq[i] - seq[i-1]; d > 16 || d < -16 {
			bigJumps++
		}
	}
	if float64(bigJumps)/float64(len(seq)) < 0.9 {
		t.Errorf("FFT pattern not strided: %d/%d big jumps", bigJumps, len(seq))
	}
}

func TestWaterHasHighReuse(t *testing.T) {
	seq := waterPattern(rand.New(rand.NewSource(1)), 100, 1000)
	distinct := len(sortedKeys(seq))
	if reuse := float64(len(seq)) / float64(distinct); reuse < 4 {
		t.Errorf("water reuse = %.1f, want >= 4", reuse)
	}
}

func TestMultiprogram(t *testing.T) {
	a, _ := ByName("fft")
	b, _ := ByName("barnes")
	tr, err := Multiprogram([]*Spec{a, b}, 3, 9, 0.1)
	if err != nil || len(tr) == 0 {
		t.Fatalf("multiprogram trace: %d records, error %v", len(tr), err)
	}
	pids := tr.PIDs()
	if len(pids) != 2*ProcsPerNode {
		t.Fatalf("pids = %v, want %d distinct", pids, 2*ProcsPerNode)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatal("multiprogram trace not serialised")
		}
		if tr[i].Node != 3 {
			t.Fatal("wrong node")
		}
	}
	// Lookup volume is split across the apps: roughly half of each
	// app's solo volume at the same scale.
	solo := a.Generate(Config{Node: 3, FirstPID: 1, Seed: 9, Scale: 0.1})
	if len(tr) > 2*len(solo) {
		t.Errorf("mix volume %d vs solo %d: split not applied", len(tr), len(solo))
	}
	if tr, err := Multiprogram(nil, 0, 1, 1); tr != nil || err != nil {
		t.Error("empty app list should produce nil")
	}
	// Each app gets half the scale, and that half is what is checked.
	if _, err := Multiprogram([]*Spec{a, b}, 3, 9, 0.005); err == nil {
		t.Error("barnes at scale 0.0025 has no page per process: want an error")
	}
}

// A scale that leaves a process no page or no lookup is an error from
// the budget, not a divide by zero in exactify (`-scale 0.001`, or
// `scale=0.001` over HTTP, used to kill the process); every scale the
// budget accepts generates, down to one page per process.
func TestCheckScale(t *testing.T) {
	for _, s := range Specs() {
		accepted := 0
		for milli := 1; milli <= 80; milli++ { // 0.00025 .. 0.02
			scale := float64(milli) / 4000
			err := s.CheckScale(scale)
			if err != nil {
				if accepted > 0 {
					t.Errorf("%s: scale %g rejected above an accepted one: %v", s.Name, scale, err)
				}
				if !strings.Contains(err.Error(), s.Name) || strings.Contains(err.Error(), "\n") {
					t.Errorf("%s: error %q should be one line naming the application", s.Name, err)
				}
				continue
			}
			accepted++
			b := s.mustBudget(scale)
			if tr := s.Generate(Config{FirstPID: 1, Seed: 7, Scale: scale}); len(tr) != b.records() {
				t.Errorf("%s at scale %g: %d records, budget says %d", s.Name, scale, len(tr), b.records())
			}
		}
		if accepted == 0 || accepted == 80 {
			t.Errorf("%s: %d of 80 small scales accepted, want some of each", s.Name, accepted)
		}
	}
	if err := CheckScale(0.001, nil); err == nil {
		t.Error("CheckScale(0.001) over all applications = nil")
	}
	if err := CheckScale(0.05, nil); err != nil {
		t.Errorf("CheckScale(0.05) = %v", err)
	}
	if err := CheckScale(0.003, []string{"lu"}); err != nil {
		t.Errorf("lu's 12507 pages fit scale 0.003: %v", err)
	}
	if err := CheckScale(1, []string{"nope"}); err == nil {
		t.Error("CheckScale of an unknown application = nil")
	}
}
