package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"utlb/internal/units"
	"utlb/internal/xlate"
)

// The codec /api/xlate/* had before the append codec, kept as the
// judge: the strings.Split key parser and the reply structs that went
// through encoding/json. The fuzzers hold scanKey, scanKeys and
// appendLookupReply to these, error strings included, and
// TestXlateWireGolden decodes every 200 reply into them.

// oracleParseKey reads one pid:vpn[:pfn] triple.
func oracleParseKey(s string) (k xlate.Key, pfn units.PFN, withPFN bool, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return k, 0, false, fmt.Errorf("bad key %q (want pid:vpn or pid:vpn:pfn)", s)
	}
	pid, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return k, 0, false, fmt.Errorf("bad pid in key %q", s)
	}
	vpn, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return k, 0, false, fmt.Errorf("bad vpn in key %q", s)
	}
	k = xlate.Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)}
	if len(parts) == 3 {
		raw, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return k, 0, false, fmt.Errorf("bad pfn in key %q", s)
		}
		return k, units.PFN(raw), true, nil
	}
	return k, 0, false, nil
}

// oracleParseKeys reads a non-empty keys= list. withPFN[i] reports
// whether keys[i] carried its frame; pfns[i] is that frame or the
// synthetic one.
func oracleParseKeys(list string) (keys []xlate.Key, pfns []units.PFN, withPFN []bool, err error) {
	parts := strings.Split(list, ",")
	if len(parts) > maxBatchKeys {
		return nil, nil, nil, fmt.Errorf("batch of %d keys exceeds limit %d", len(parts), maxBatchKeys)
	}
	keys = make([]xlate.Key, len(parts))
	pfns = make([]units.PFN, len(parts))
	withPFN = make([]bool, len(parts))
	for i, part := range parts {
		k, pfn, with, err := oracleParseKey(part)
		if err != nil {
			return nil, nil, nil, err
		}
		if !with {
			pfn = xlate.SyntheticPFN(k)
		}
		keys[i], pfns[i], withPFN[i] = k, pfn, with
	}
	return keys, pfns, withPFN, nil
}

// xlateResult is one lookup outcome on the wire.
type xlateResult struct {
	Hit    bool      `json:"hit"`
	PFN    units.PFN `json:"pfn,omitempty"`
	Probes int       `json:"probes"`
}

// xlateLookupResponse answers /api/xlate/lookup.
type xlateLookupResponse struct {
	Lookups int64         `json:"lookups"`
	Hits    int64         `json:"hits"`
	Results []xlateResult `json:"results"`
}

// xlateInsertResponse answers /api/xlate/insert. The members are in
// the sorted order of the map[string]int the handler once encoded.
type xlateInsertResponse struct {
	Evictions int `json:"evictions"`
	Inserted  int `json:"inserted"`
}

// xlateInvalidateResponse answers /api/xlate/invalidate.
type xlateInvalidateResponse struct {
	Dropped int `json:"dropped"`
}

// oracleLookupReply is the body the handler builds for out.
func oracleLookupReply(out []xlate.Result) ([]byte, error) {
	resp := xlateLookupResponse{Lookups: int64(len(out))}
	resp.Results = make([]xlateResult, len(out))
	for i, res := range out {
		resp.Results[i] = xlateResult{Hit: res.Hit, Probes: res.Probes}
		if res.Hit {
			resp.Results[i].PFN = res.PFN
			resp.Hits++
		}
	}
	data, err := json.Marshal(resp)
	return append(data, '\n'), err
}
