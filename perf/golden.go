package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
)

// goldenJSON maps output keys (workload, size and seed) to the SHA-256
// of the output the simulator must produce for them.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	g := make(map[string]string)
	return g, json.Unmarshal(goldenJSON, &g)
}

// mergeGolden adds digests to the golden file at path, keeping the keys
// it already holds unless digests replaces them.
func mergeGolden(path string, digests map[string]string) error {
	g := make(map[string]string)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, v := range digests {
		g[k] = v
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
