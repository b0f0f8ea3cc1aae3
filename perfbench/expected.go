package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"rendezvous/internal/adversary"
	"rendezvous/internal/sim"
)

// expected.json pins the result of every sweep search: its fingerprint
// (the result store's content address) and its full WorstCase — time
// and cost with their witnesses, runs, allMet. Regenerate it with
//
//	bash perfbench/run.sh --update-expected perfbench/expected.json
//
// only when a change is meant to alter results or store addresses.
//
//go:embed expected.json
var expectedJSON []byte

// expectedSearch is one pinned sweep search.
type expectedSearch struct {
	Name        string        `json:"name"`
	Fingerprint string        `json:"fingerprint"`
	Result      sim.WorstCase `json:"result"`
}

// loadExpected indexes the embedded expectations by search name.
func loadExpected() (map[string]expectedSearch, error) {
	var list []expectedSearch
	if err := json.Unmarshal(expectedJSON, &list); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	out := make(map[string]expectedSearch, len(list))
	for _, e := range list {
		out[e.Name] = e
	}
	return out, nil
}

// writeExpected recomputes every sweep search and writes the
// expectations file.
func writeExpected(path string, workers int) error {
	var list []expectedSearch
	for _, s := range append(append([]sweepSearch(nil), sweepStatic...), sweepGeneric...) {
		cs, err := compileDoc(nil, s.Name, []byte(s.Doc))
		if err != nil {
			return err
		}
		// Pin paper searches from the reference generic tier, so the
		// fast tiers are checked against an independent executor.
		m := cs.Model
		if pm, ok := m.(adversary.PaperModel); ok {
			pm.Tier = adversary.TierGeneric
			m = pm
		}
		wc, err := adversary.SearchModel(m, adversary.Options{Workers: workers})
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		list = append(list, expectedSearch{Name: s.Name, Fingerprint: cs.Fingerprint, Result: wc})
	}
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
