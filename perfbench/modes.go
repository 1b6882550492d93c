package main

import (
	"fmt"
	"os"
	"sort"
)

// smokeMain runs every workload once, traced and untraced, for one
// second with every check, and fails on any failed operation or wrong
// answer: a quick proof that no workload has rotted.
func smokeMain(spec *benchSpec, seed uint64, workRoot string) int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			rc := runConfig{workload: name, seed: seed, seconds: 1, trace: trace, setups: 1}
			res, err := execute(rc, spec, workRoot)
			switch {
			case err != nil:
				fmt.Printf("smoke %s trace=%v: %v\n", name, trace, err)
				status = 1
			case !res.Correct || res.Failed > 0:
				fmt.Printf("smoke %s trace=%v: correct=%v failed=%d of %d\n", name, trace, res.Correct, res.Failed, res.Attempted)
				status = 1
			default:
				fmt.Printf("smoke %s trace=%v: ok, %d operations\n", name, trace, res.Attempted)
			}
		}
	}
	return status
}

// spreadMain judges result lines against the bounds: the first file
// holds one set of runs of a workload, an optional second file another
// set of the same workload.
func spreadMain(spec *benchSpec, files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "perfbench --spread: want one or two files of result lines")
		return 2
	}
	var sets [2][]result
	for i, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		sets[i], err = readResults(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	verdicts, err := judge(spec.EndToEnd, sets[0], sets[1])
	if err != nil {
		fmt.Println("FAIL:", err)
		return 1
	}
	status := 0
	fmt.Printf("%-16s %14s %8s %8s %8s\n", "metric", "median", "spread", "drift", "bound")
	for _, v := range verdicts {
		mark := "ok"
		if !v.OK {
			mark = "FAIL"
			status = 1
		} else if v.Name != "setup_s" && v.Spread > v.Bound/3 {
			mark = "ok (spread above a third of the bound)"
		}
		fmt.Printf("%-16s %14.6g %8.4f %8.4f %8.3f  %s\n", v.Name, v.Median, v.Spread, v.Drift, v.Bound, mark)
	}
	return status
}
