package main

import (
	_ "embed"
	"encoding/json"
)

// digests.json holds, per batch workload and seed, the expected digest of
// every cell's export row in grid order (scenario, policy, seed) at the
// default sizes. After a deliberate change of results, print an entry with
//
//	bash perfbench/run.sh --workload sweep --seed 1 --print-digests
//
//go:embed digests.json
var digestsJSON []byte

// referenceDigests is digests.json decoded: workload -> seed -> digests.
var referenceDigests = func() map[string]map[uint64][]string {
	var m map[string]map[uint64][]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()
