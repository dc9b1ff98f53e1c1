package testbed

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Export helpers: every figure's data can be written as CSV for external
// plotting, one file per artifact, with a header row. Paths are created
// under the given directory.

// writeCSV writes rows (first row = header) to dir/name.
func writeCSV(dir, name string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func e3(v float64) string { return strconv.FormatFloat(v, 'e', 3, 64) }

// ExportCSV writes fig2.csv: subcarrier, ant1_dbm, ant2_dbm.
func (f Figure2) ExportCSV(dir string) error {
	rows := [][]string{{"subcarrier", "ant1_dbm", "ant2_dbm"}}
	for k := range f.PowerDBm[0] {
		rows = append(rows, []string{strconv.Itoa(k), f1(f.PowerDBm[0][k]), f1(f.PowerDBm[1][k])})
	}
	return writeCSV(dir, "fig2.csv", rows)
}

// ExportCSV writes fig3.csv: per-topology nulling effects.
func (f Figure3) ExportCSV(dir string) error {
	rows := [][]string{{"topology", "inr_reduction_db", "snr_reduction_db", "sinr_increase_db"}}
	for t := range f.PerTopologyINRReductionDB {
		rows = append(rows, []string{
			strconv.Itoa(t),
			f1(f.PerTopologyINRReductionDB[t]),
			f1(f.PerTopologySNRReductionDB[t]),
			f1(f.PerTopologySINRIncreaseDB[t]),
		})
	}
	return writeCSV(dir, "fig3.csv", rows)
}

// ExportCSV writes fig4.csv: per-subcarrier SNR/SINR curves.
func (f Figure4) ExportCSV(dir string) error {
	rows := [][]string{{"subcarrier", "snr_bf_db", "snr_null_db", "sinr_null_db"}}
	for k := range f.SNRBFDB {
		rows = append(rows, []string{strconv.Itoa(k), f1(f.SNRBFDB[k]), f1(f.SNRNullDB[k]), f1(f.SINRNullDB[k])})
	}
	return writeCSV(dir, "fig4.csv", rows)
}

// ExportCSV writes fig7.csv: per-subcarrier BER with and without COPA.
func (f Figure7) ExportCSV(dir string) error {
	rows := [][]string{{"subcarrier", "ber_copa", "ber_nopa", "dropped"}}
	for k := range f.BERCOPA {
		d := "0"
		if f.Dropped[k] {
			d = "1"
		}
		rows = append(rows, []string{strconv.Itoa(k), e3(f.BERCOPA[k]), e3(f.BERNoPA[k]), d})
	}
	return writeCSV(dir, "fig7.csv", rows)
}

// ExportCSV writes fig9.csv: the topology scatter.
func (f Figure9) ExportCSV(dir string) error {
	rows := [][]string{{"signal_dbm", "interference_dbm"}}
	for i := range f.SignalDBm {
		rows = append(rows, []string{f1(f.SignalDBm[i]), f1(f.InterferenceDBm[i])})
	}
	return writeCSV(dir, "fig9.csv", rows)
}

// ExportTable1CSV writes table1.csv.
func ExportTable1CSV(dir string) error {
	rows := [][]string{{"coherence_ms", "copa_conc_pct", "copa_seq_pct", "csma_cts_pct", "csma_rts_pct"}}
	for _, r := range Table1() {
		rows = append(rows, []string{
			fmt.Sprintf("%g", float64(r.Coherence.Microseconds())/1000),
			f1(r.COPAConc * 100), f1(r.COPASeq * 100),
			f1(r.CSMACTS * 100), f1(r.CSMARTS * 100),
		})
	}
	return writeCSV(dir, "table1.csv", rows)
}

// ExportCSV writes fig14.csv.
func (f Figure14) ExportCSV(dir string) error {
	rows := [][]string{{"scheme", "scenario", "improvement_pct"}}
	for _, scheme := range Figure14Schemes {
		for _, sc := range []string{"1x1", "4x2", "3x2"} {
			rows = append(rows, []string{scheme, sc, f1(f.Improvement[sc][scheme])})
		}
	}
	return writeCSV(dir, "fig14.csv", rows)
}
