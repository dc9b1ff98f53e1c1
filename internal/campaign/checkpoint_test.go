package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// journalHeaderBytes returns the header line openJournal writes for
// spec, newline included.
func journalHeaderBytes(t testing.TB, spec Spec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "header.jsonl")
	j, _, err := openJournal(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadJournal feeds arbitrary bytes after a valid header to the
// checkpoint reader. Whatever it keeps must end on a line boundary,
// survive the resume truncation unchanged, re-marshal to units with the
// same sketch counts, and merge without panicking.
func FuzzLoadJournal(f *testing.F) {
	spec := testSpec()
	header := journalHeaderBytes(f, spec)
	other := spec
	other.Seed++
	for _, seed := range []string{
		"",
		`{"unit":0,"columns":{"x":{"n":2,"mean":1.5,"m2":0.5,"sketch":{"zero":0,"buckets":[[4194560,2]]}}}}` + "\n" + `{"unit":1,"colu`,
		`{"unit":0,"columns":{"x":null}}` + "\n",
		`{"unit":0,"columns":{"x":{"n":5,"mean":1,"m2":0,"sketch":{"zero":0,"buckets":[[4294967296,5]]}}}}` + "\n",
		`{"unit":0,"columns":{"x":{"n":2,"mean":1,"m2":0,"sketch":{"zero":0,"buckets":[[4194560,9223372036854775807],[4194560,9223372036854775807]]}}}}` + "\n",
		string(journalHeaderBytes(f, other)),
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "campaign.jsonl")
		data := append(append([]byte{}, header...), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fp := spec.Fingerprint()
		kept, units, err := loadJournal(path, spec, fp)
		if err != nil {
			t.Fatalf("valid header rejected: %v", err)
		}
		if kept < int64(len(header)) || data[kept-1] != '\n' {
			t.Fatalf("kept prefix of %d bytes does not end on a line boundary", kept)
		}

		j, resumed, err := openJournal(path, spec, true)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, units) {
			t.Fatal("resume returned different units than the reader")
		}
		kept2, again, err := loadJournal(path, spec, fp)
		if err != nil {
			t.Fatalf("re-open of the truncated journal: %v", err)
		}
		if kept2 != kept || !reflect.DeepEqual(again, units) {
			t.Fatalf("re-open kept %d bytes and %d units, want %d and %d", kept2, len(again), kept, len(units))
		}

		order := make([]int, 0, len(units))
		for u, res := range units {
			order = append(order, u)
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("unit %d: re-marshal: %v", u, err)
			}
			var back UnitResult
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("unit %d: re-marshalled line %s rejected: %v", u, line, err)
			}
			for name, c := range res.Columns {
				if got, want := back.Columns[name].Sketch.Count(), c.Sketch.Count(); got != want {
					t.Fatalf("unit %d column %q: sketch count %d after round trip, want %d", u, name, got, want)
				}
			}
		}
		sort.Ints(order)
		m := newMerger(spec)
		for _, u := range order {
			m.next = u // fold every loaded unit, gaps included
			m.Add(units[u])
		}
	})
}
