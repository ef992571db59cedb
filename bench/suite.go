package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSuite runs the chosen workloads, each in a process of its own so that
// one workload's heap, page cache use and peak RSS never leak into the
// next's numbers, and prints every metric by name. With -repeat N it does so
// N times and checks, per metric and workload, that no two passes disagree
// by more than the metric's bound, whichever of them is taken as the base.
func runSuite(o options) error {
	names := workloadNames
	if o.workload != "all" {
		if _, err := workloadByName(o.workload); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	passes := make([]map[string]resultLine, o.repeat)
	for p := range passes {
		passes[p] = map[string]resultLine{}
		for _, name := range names {
			line, err := runChild(exe, o, name)
			if err != nil {
				return fmt.Errorf("pass %d, %s: %w", p+1, name, err)
			}
			passes[p][name] = line
		}
	}

	var failed []string
	for _, name := range names {
		fmt.Printf("workload %s\n", name)
		for _, d := range defs {
			fmt.Printf("  %-44s", d.Name)
			for p := range passes {
				fmt.Printf(" %14.6g", passes[p][name].Metrics[d.Name].Value)
			}
			fmt.Printf(" %-8s", d.Unit)
			if o.repeat > 1 && !o.trace {
				worst := 0.0
				for p := range passes {
					for q := range passes[:p] {
						worst = max(worst, disagreement(passes[q][name].Metrics[d.Name].Value, passes[p][name].Metrics[d.Name].Value, d.Better == "lower"))
					}
				}
				verdict := "ok"
				if worst > d.Bound {
					verdict = "BEYOND BOUND"
					failed = append(failed, name+"/"+d.Name)
				}
				fmt.Printf(" passes differ by %.1f%% against a bound of %.0f%%  %s", 100*worst, 100*d.Bound, verdict)
			}
			fmt.Println()
		}
	}
	last, err := json.Marshal(passes[len(passes)-1])
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if len(failed) > 0 {
		return fmt.Errorf("repeat check: %s moved by more than the bound between passes of the same code", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs one workload in a child process, passes its report through,
// and parses the result line it prints last.
func runChild(exe string, o options, name string) (resultLine, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.out)
	if o.breakCheck {
		cmd.Args = append(cmd.Args, "-break-check")
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var lastLine string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if lastLine != "" {
			fmt.Println("   ", lastLine)
		}
		lastLine = sc.Text()
	}
	if runErr != nil {
		fmt.Println("   ", lastLine)
		return resultLine{}, runErr
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lastLine), &line); err != nil {
		return resultLine{}, fmt.Errorf("child printed no result line: %w", err)
	}
	return line, nil
}
