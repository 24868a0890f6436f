// Command benchjson parses `go test -bench` output into a JSON summary for
// the BENCH trajectory, and compares two summaries benchstat-style.
//
//	go run ./scripts/benchjson -raw results/bench_1.txt -out BENCH_1.json
//	go run ./scripts/benchjson -compare BENCH_1.json BENCH_2.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Summary is one point of the BENCH trajectory.
type Summary struct {
	// Host identifies the machine the benchmarks ran on. Points are only
	// comparable when their hosts match.
	Host Host `json:"host"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// aggregated result across -count runs.
	Benchmarks map[string]*Result `json:"benchmarks"`
}

// Host is the benchmark host as `go test -bench` reports it: the goos,
// goarch and cpu header lines, and GOMAXPROCS from the benchmark-name suffix
// (which go test omits when GOMAXPROCS is 1).
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Result aggregates one benchmark's runs by arithmetic mean.
type Result struct {
	Runs     int                `json:"runs"`
	NsPerOp  float64            `json:"ns_per_op"`
	BPerOp   float64            `json:"bytes_per_op,omitempty"`
	AllocsOp float64            `json:"allocs_per_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`

	nsMin, nsMax float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		raw     = flag.String("raw", "", "raw `go test -bench` output to parse")
		out     = flag.String("out", "", "JSON summary output path (default stdout)")
		compare = flag.Bool("compare", false, "compare two JSON summaries (old new)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two JSON files: old new")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *raw == "" {
		log.Fatal("need -raw (or -compare old.json new.json)")
	}
	s, err := parseFile(*raw)
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// parseFile reads raw benchmark output, averaging repeated runs of the same
// benchmark (from -count) into one Result each.
func parseFile(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type acc struct {
		runs            int
		ns, b, allocs   float64
		nsMin, nsMax    float64
		metrics         map[string]float64
		metricRunCounts map[string]int
	}
	accs := map[string]*acc{}
	var host Host

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "cpu":
				host.CPU = v
			case "goos":
				host.GOOS = v
			case "goarch":
				host.GOARCH = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-N  iters  v1 unit1  v2 unit2 ...
		if len(fields) < 4 {
			continue
		}
		name, procs := fields[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		host.GOMAXPROCS = procs
		a := accs[name]
		if a == nil {
			a = &acc{metrics: map[string]float64{}, metricRunCounts: map[string]int{}}
			accs[name] = a
		}
		a.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				a.ns += v
				if a.runs == 1 || v < a.nsMin {
					a.nsMin = v
				}
				if v > a.nsMax {
					a.nsMax = v
				}
			case "B/op":
				a.b += v
			case "allocs/op":
				a.allocs += v
			default:
				a.metrics[unit] += v
				a.metricRunCounts[unit]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in %s", path)
	}

	s := &Summary{Host: host, Benchmarks: map[string]*Result{}}
	for name, a := range accs {
		n := float64(a.runs)
		r := &Result{
			Runs:     a.runs,
			NsPerOp:  a.ns / n,
			BPerOp:   a.b / n,
			AllocsOp: a.allocs / n,
			nsMin:    a.nsMin,
			nsMax:    a.nsMax,
		}
		if len(a.metrics) > 0 {
			r.Metrics = map[string]float64{}
			for k, v := range a.metrics {
				r.Metrics[k] = v / float64(a.metricRunCounts[k])
			}
		}
		s.Benchmarks[name] = r
	}
	return s, nil
}

func (h Host) String() string {
	cpu := h.CPU
	if cpu == "" {
		cpu = "cpu unrecorded"
	}
	return fmt.Sprintf("%s, %s/%s, GOMAXPROCS=%d", cpu, h.GOOS, h.GOARCH, h.GOMAXPROCS)
}

// compareFiles prints a benchstat-like delta table between two summaries.
func compareFiles(oldPath, newPath string) error {
	load := func(path string) (*Summary, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s Summary
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	oldS, err := load(oldPath)
	if err != nil {
		return err
	}
	newS, err := load(newPath)
	if err != nil {
		return err
	}
	if oldS.Host != newS.Host {
		fmt.Fprintf(os.Stderr, "benchjson: WARNING: different hosts, timings are not comparable:\n  old %s\n  new %s\n",
			oldS.Host, newS.Host)
	}

	var names []string
	for name := range oldS.Benchmarks {
		if _, ok := newS.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}

	fmt.Printf("%-40s  %14s  %14s  %8s\n", "benchmark", "old", "new", "delta")
	row := func(name, metric string, o, n float64, format func(float64) string) {
		delta := "~"
		if o > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
		}
		fmt.Printf("%-40s  %14s  %14s  %8s\n", name+" "+metric, format(o), format(n), delta)
	}
	secs := func(v float64) string { return fmt.Sprintf("%.3fs", v/1e9) }
	count := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	for _, name := range names {
		o, n := oldS.Benchmarks[name], newS.Benchmarks[name]
		short := strings.TrimPrefix(name, "Benchmark")
		row(short, "sec/op", o.NsPerOp, n.NsPerOp, secs)
		if o.AllocsOp > 0 || n.AllocsOp > 0 {
			row(short, "allocs/op", o.AllocsOp, n.AllocsOp, count)
		}
	}
	return nil
}
