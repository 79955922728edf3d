package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
)

// refFS holds the reference answers of every workload's instance pool,
// written by -write-ref. A run draws its instances from the pool (its seed
// picks the order) and checks every answer against them.
//
//go:embed ref
var refFS embed.FS

// fullWorkloads are the workloads at the sizes BENCHMARK.json describes.
// Their pools are several times what one run uses, so different seeds run
// different instances, and the instances of one workload share their
// topology so that a run's cost depends little on which ones it draws.
func fullWorkloads() []workload {
	return []workload{
		&sweepWorkload{p: sweepParams{PerKind: 64, Objects: 8, HorizonHours: 4, WebRequests: 1000, GroupRequests: 4000}},
		&resolveWorkload{p: resolveParams{Seeds: 24, TQoS: []float64{0.90, 0.95, 0.99}, DeltaMinutes: 15, Requests: 16000}},
		&serveWorkload{p: serveParams{Hot: 4, HotPool: 8, HotObjects: 8, HotRequests: 12000,
			FreshPerKind: 128, FreshObjects: 12, FreshRequests: 3000, FreshHorizonHours: 6, FreshEvery: 4, Clients: 2}},
		&ingestWorkload{p: ingestParams{Seeds: 24, Objects: 1000, Requests: 16_000_000}},
	}
}

// loadRef installs the workload's embedded reference answers.
func loadRef(w workload) error {
	data, err := refFS.ReadFile("ref/" + w.name() + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("no reference answers for %s; run with -write-ref", w.name())
	}
	if err != nil {
		return err
	}
	return w.useRef(data)
}

// decodeRef decodes reference answers into ref and refuses them when they
// were computed for other workload parameters than want.
func decodeRef(workload string, data []byte, ref, params, want any) error {
	if err := json.Unmarshal(data, ref); err != nil {
		return fmt.Errorf("reference answers for %s: %w", workload, err)
	}
	if !reflect.DeepEqual(params, want) {
		return fmt.Errorf("reference answers for %s were written for parameters %+v, the workload has %+v; run with -write-ref",
			workload, params, want)
	}
	return nil
}

// writeRefs recomputes the reference answers of one workload, or of all
// when only is empty, into dir.
func writeRefs(dir, only string, log io.Writer) error {
	found := false
	for _, w := range fullWorkloads() {
		if only != "" && w.name() != only {
			continue
		}
		found = true
		fmt.Fprintf(log, "bench: computing the reference answers of %s\n", w.name())
		ref, err := w.makeRef(log)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
		data, err := json.MarshalIndent(ref, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, w.name()+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(log, "bench: wrote %s\n", path)
	}
	if !found {
		return fmt.Errorf("unknown workload %q", only)
	}
	return nil
}

// digest is a short content hash of a canonical answer.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}
