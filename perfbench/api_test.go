package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// retiring names APIs that planned simplifications of the program delete:
// the per-simulation worker knob and the partitioned kernel, sampled
// simulation, and the cluster client's async path. The benchmark must work
// unchanged across those deletions, so it may not use them.
var retiring = map[string]bool{
	"Workers":        true, // experiments.Options, config.Config, serve.JobRequest
	"Shards":         true, // system.Machine
	"Sample":         true, // config.Config
	"SampleParams":   true,
	"AsyncThreshold": true, // cluster.Config
	"AsyncJobs":      true, // cluster.Stats
}

var retiringImports = []string{"streamfloat/internal/par", "streamfloat/internal/sample"}

func TestBenchmarkAvoidsRetiringAPIs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Selectors on standard-library packages, such as metrics.Sample,
		// are not the program's APIs.
		std := map[string]bool{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, bad := range retiringImports {
				if path == bad {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), bad)
				}
			}
			if !strings.HasPrefix(path, "streamfloat/") {
				std[filepath.Base(path)] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); !ok || !std[x.Name] {
					id = n.Sel
				}
			case *ast.KeyValueExpr:
				id, _ = n.Key.(*ast.Ident)
			}
			if id != nil && retiring[id.Name] {
				t.Errorf("%s uses %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the command prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: command %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}
