package xcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Generator maps a seed to an instance of one domain.
type Generator func(seed uint64) Instance

// DomainSpec describes one domain's slice of a corpus.
type DomainSpec struct {
	Name  string
	Count int
	Gen   Generator
}

// DefaultSpec is the shipped golden-corpus composition. Counts are
// sized so the full sweep stays inside a normal `go test` budget while
// covering every oracle-paired engine.
func DefaultSpec() []DomainSpec {
	return []DomainSpec{
		{"cover", 32, func(s uint64) Instance { return GenCover(s) }},
		{"cnf", 32, func(s uint64) Instance { return GenCNF(s) }},
		{"route", 24, func(s uint64) Instance { return GenRoute(s) }},
		{"proute", 12, func(s uint64) Instance { return GenPRoute(s) }},
		{"spd", 16, func(s uint64) Instance { return GenSPD(s) }},
		{"place", 12, func(s uint64) Instance { return GenPlace(s) }},
		{"panneal", 12, func(s uint64) Instance { return GenPAnneal(s) }},
		{"net", 16, func(s uint64) Instance { return GenNet(s) }},
	}
}

// CorpusMasterSeed is the master seed of the shipped golden corpus
// (testdata/xcheck at the repository root). cmd/xcheckgen regenerates
// the corpus from it; changing it requires regenerating the corpus.
const CorpusMasterSeed uint64 = 1

// ManifestName is the corpus index file.
const ManifestName = "MANIFEST"

// FileName returns the corpus file name of instance i of a domain.
func FileName(domain string, i int) string {
	return fmt.Sprintf("%s-%03d.txt", domain, i)
}

// WriteCorpus (re)generates the golden corpus into dir: one dump per
// file plus a MANIFEST recording the master seed and the composition.
// Any previous corpus files in dir are removed first, so the directory
// is always exactly one corpus.
func WriteCorpus(dir string, master uint64, spec []DomainSpec) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	old, err := filepath.Glob(filepath.Join(dir, "*-*.txt"))
	if err != nil {
		return 0, err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return 0, err
		}
	}
	var manifest strings.Builder
	fmt.Fprintf(&manifest, "xcheck corpus v1\nmaster-seed %d\n", master)
	written := 0
	for _, d := range spec {
		fmt.Fprintf(&manifest, "domain %s %d\n", d.Name, d.Count)
		for i := 0; i < d.Count; i++ {
			inst := d.Gen(DeriveSeed(master, d.Name, i))
			name := FileName(d.Name, i)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(inst.Dump()), 0o644); err != nil {
				return written, err
			}
			written++
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest.String()), 0o644); err != nil {
		return written, err
	}
	return written, nil
}

// ReadManifest parses dir/MANIFEST into the master seed and the
// composition (resolving generators by domain name).
func ReadManifest(dir string) (uint64, []DomainSpec, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return 0, nil, err
	}
	byName := map[string]Generator{}
	for _, d := range DefaultSpec() {
		byName[d.Name] = d.Gen
	}
	var master uint64
	var spec []DomainSpec
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != "xcheck corpus v1" {
		return 0, nil, fmt.Errorf("xcheck: %s is not a v1 corpus manifest", ManifestName)
	}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "master-seed":
			master, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("xcheck: bad master-seed: %v", err)
			}
		case len(fields) == 3 && fields[0] == "domain":
			gen, ok := byName[fields[1]]
			if !ok {
				return 0, nil, fmt.Errorf("xcheck: manifest names unknown domain %q", fields[1])
			}
			count, err := strconv.Atoi(fields[2])
			if err != nil || count < 0 {
				return 0, nil, fmt.Errorf("xcheck: bad count for domain %s", fields[1])
			}
			spec = append(spec, DomainSpec{Name: fields[1], Count: count, Gen: gen})
		default:
			return 0, nil, fmt.Errorf("xcheck: bad manifest line %q", line)
		}
	}
	return master, spec, nil
}

// VerifyCorpus regenerates the corpus described by dir/MANIFEST and
// checks that (a) the directory contains exactly the expected files,
// (b) every file is byte-identical to its regenerated dump, and (c)
// every instance passes its oracle. It returns the instance count and
// all mismatches (determinism failures are reported as mismatches of
// the affected instance too).
func (c *Checker) VerifyCorpus(dir string) (int, []Mismatch, error) {
	master, spec, err := ReadManifest(dir)
	if err != nil {
		return 0, nil, err
	}
	expected := map[string]bool{}
	var mismatches []Mismatch
	total := 0
	for _, d := range spec {
		for i := 0; i < d.Count; i++ {
			total++
			name := FileName(d.Name, i)
			expected[name] = true
			seed := DeriveSeed(master, d.Name, i)
			inst := d.Gen(seed)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return total, mismatches, err
			}
			if string(data) != inst.Dump() {
				mismatches = append(mismatches, Mismatch{
					Domain: d.Name, Seed: seed,
					Detail: fmt.Sprintf("corpus file %s is not byte-identical to the regenerated dump", name),
					Dump:   inst.Dump(),
				})
				continue
			}
			mismatches = append(mismatches, c.Check(inst)...)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*-*.txt"))
	if err != nil {
		return total, mismatches, err
	}
	var stray []string
	for _, f := range files {
		if !expected[filepath.Base(f)] {
			stray = append(stray, filepath.Base(f))
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		return total, mismatches, fmt.Errorf("xcheck: stray corpus files: %v", stray)
	}
	return total, mismatches, nil
}
