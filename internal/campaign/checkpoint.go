package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The checkpoint journal is line-delimited JSON: a header line binding
// the file to a spec fingerprint, then one line per completed work
// unit carrying that unit's full aggregates. Appending a line after
// each unit makes the journal a prefix-complete record: a campaign
// killed at any instant resumes by replaying the good prefix and
// recomputing only units with no line. A torn final line (the process
// died mid-write) is detected and truncated away — everything before
// it is intact by construction.

// journalVersion guards the on-disk format. Version 2 units carry the
// headline columns, so a version-1 journal would resume into columns
// that lack its units' samples.
const journalVersion = 2

// journalHeader is the first line of every checkpoint file.
type journalHeader struct {
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
	Spec        Spec   `json:"spec"`
}

// journal appends completed units to the checkpoint file.
type journal struct {
	f *os.File
	w *bufio.Writer
}

// openJournal opens (or creates) the checkpoint at path for spec.
// Resume selects whether an existing file is loaded or an error: a
// fresh campaign refuses to silently clobber a prior checkpoint unless
// it is told to resume it. The returned map holds the units already
// completed (empty for a fresh file).
func openJournal(path string, spec Spec, resume bool) (*journal, map[int]*UnitResult, error) {
	fp := spec.Fingerprint()
	done := make(map[int]*UnitResult)

	if _, err := os.Stat(path); err == nil {
		if !resume {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s exists; pass resume to continue it or remove it", path)
		}
		goodBytes, units, err := loadJournal(path, spec, fp)
		if err != nil {
			return nil, nil, err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, err
		}
		// Drop a torn tail so the next append starts on a line boundary.
		if err := f.Truncate(goodBytes); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &journal{f: f, w: bufio.NewWriter(f)}, units, nil
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f, w: bufio.NewWriter(f)}
	if err := j.writeLine(journalHeader{V: journalVersion, Fingerprint: fp, Spec: spec}); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, done, nil
}

// loadJournal parses a checkpoint, returning the byte length of the
// valid prefix and the units it records. A header that fails to parse
// or belongs to a different spec is an error. The first unit line that
// is torn, unparsable, out of range or missing a column's aggregates
// marks the cut point: it and everything after it are dropped.
func loadJournal(path string, spec Spec, fingerprint string) (int64, map[int]*UnitResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	units := make(map[int]*UnitResult)
	var offset int64
	first := true
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		line := data[:nl]
		if first {
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return 0, nil, fmt.Errorf("campaign: checkpoint %s: bad header: %w", path, err)
			}
			if hdr.V != journalVersion {
				return 0, nil, fmt.Errorf("campaign: checkpoint %s: version %d, want %d", path, hdr.V, journalVersion)
			}
			if hdr.Fingerprint != fingerprint {
				return 0, nil, fmt.Errorf("campaign: checkpoint %s was written by a different campaign spec (fingerprint %.12s…, want %.12s…)", path, hdr.Fingerprint, fingerprint)
			}
			first = false
		} else {
			var u UnitResult
			if err := json.Unmarshal(line, &u); err != nil {
				break // torn or corrupt tail line: truncate here
			}
			if u.Unit < 0 || u.Unit >= spec.Units() || !wholeColumns(u.Columns) {
				break
			}
			units[u.Unit] = &u
		}
		offset += int64(nl) + 1
		data = data[nl+1:]
	}
	if first {
		return 0, nil, fmt.Errorf("campaign: checkpoint %s has no valid header", path)
	}
	return offset, units, nil
}

// wholeColumns reports whether a decoded unit line carries a column map
// whose every column has its sketch. A null column or sketch cannot
// come from a completed unit, so it marks a corrupt cut point.
func wholeColumns(cols map[string]*Column) bool {
	if cols == nil {
		return false
	}
	for _, c := range cols {
		if c == nil || c.Sketch == nil {
			return false
		}
	}
	return true
}

// writeLine appends one JSON line and flushes it to the OS, so a
// completed unit survives any subsequent kill of the process.
func (j *journal) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// Record journals one completed unit.
func (j *journal) Record(u *UnitResult) error { return j.writeLine(u) }

// Close flushes and closes the file.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
