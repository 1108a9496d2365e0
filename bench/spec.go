package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json: the contract the driver, the
// emitted names and -compare all read.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// Limits of the benchmark contract.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads BENCHMARK.json from the working directory or, failing
// that, its parent: the benchmark runs from the checkout root, its
// tests from bench/.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// validate checks names, units and counts against the contract's
// limits, and that the program knows every declared workload and
// end-to-end metric with the declared unit and direction.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads (want 2..%d)", n, maxWorkloads)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics (want 1..%d)", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics (want 1..%d)", n, maxPerLayer)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	claim := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := claim(w.Name); err != nil {
			return err
		}
		if workloadByName(w.Name) == nil {
			return fmt.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
	checkDecl := func(d metricDecl) error {
		if err := claim(d.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %q: better is %q (want lower or higher)", d.Name, d.Better)
		}
		return nil
	}
	for _, d := range s.EndToEnd {
		if err := checkDecl(d); err != nil {
			return err
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			return fmt.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		def := endToEndByName(d.Name)
		if def == nil || !def.universal {
			return fmt.Errorf("metric %q is not an end-to-end metric every workload emits", d.Name)
		}
		if def.unit != d.Unit || def.better() != d.Better {
			return fmt.Errorf("metric %q declared %s/%s, the benchmark emits %s/%s", d.Name, d.Unit, d.Better, def.unit, def.better())
		}
	}
	for _, d := range s.PerLayer {
		if err := checkDecl(d); err != nil {
			return err
		}
	}
	return nil
}

// bound returns the declared regression bound of an end-to-end metric.
func (s *benchSpec) bound(name string) (float64, bool) {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d.Bound, true
		}
	}
	return 0, false
}
