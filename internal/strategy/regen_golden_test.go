package strategy

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// TestRegenGolden prints fresh goldenOutcomes and goldenCOPAPlus tables.
func TestRegenGolden(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN") == "" {
		t.Skip("set REGEN_GOLDEN=1 to print fresh golden tables")
	}
	for _, table := range []struct {
		name     string
		copaPlus bool
	}{{"goldenOutcomes", false}, {"goldenCOPAPlus", true}} {
		fmt.Printf("%s:\n", table.name)
		for _, name := range []string{"4x2", "1x1", "3x2"} {
			outs, kinds, err := goldenEval(name, table.copaPlus)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("\t%q: {\n", name)
			for _, k := range kinds {
				o := outs[k]
				fmt.Printf("\t\t{Kind(%d), %v, %v, %#016x, %#016x, %#016x, %#016x},\n",
					int(k), o.Concurrent, o.SDA,
					math.Float64bits(o.PerClient[0]), math.Float64bits(o.PerClient[1]),
					math.Float64bits(o.Predicted[0]), math.Float64bits(o.Predicted[1]))
			}
			fmt.Printf("\t},\n")
		}
	}
}
