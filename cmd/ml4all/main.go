// Command ml4all executes declarative GD queries end-to-end: it loads the
// referenced datasets, runs the cost-based optimizer, trains with the chosen
// plan on the simulated cluster, and reports the model, plan and (simulated)
// training time.
//
// Usage:
//
//	ml4all -q 'run classification on train.txt having epsilon 0.01;'
//	ml4all -f script.mlq -explain
//	echo 'Q1 = run svm() on data.txt; persist Q1 on model.txt;' | ml4all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ml4all"
)

func main() {
	query := flag.String("q", "", "query string to execute")
	file := flag.String("f", "", "file holding a query script")
	explain := flag.Bool("explain", false, "print the full ranked plan space per query")
	flag.Parse()

	src, err := querySource(*query, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ml4all:", err)
		os.Exit(2)
	}

	sys := ml4all.NewSystem()
	outs, err := sys.Exec(src)
	for _, out := range outs {
		printOutput(sys, out, *explain)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ml4all:", err)
		os.Exit(1)
	}
}

func querySource(q, f string) (string, error) {
	switch {
	case q != "" && f != "":
		return "", fmt.Errorf("use -q or -f, not both")
	case q != "":
		return q, nil
	case f != "":
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		return string(b), nil
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		if len(b) == 0 {
			return "", fmt.Errorf("no query given (-q, -f, or stdin)")
		}
		return string(b), nil
	}
}

func printOutput(sys *ml4all.System, out ml4all.Output, explain bool) {
	switch {
	case out.Model != nil:
		m := out.Model
		fmt.Printf("model %s: task=%s plan=%s iterations=%d converged=%v train_time=%.1fs (simulated)\n",
			m.Name, m.Task, m.PlanName, m.Iterations, m.Converged, float64(m.TrainTime))
		if explain {
			for i, line := range ml4all.RankedPlanNames(out.Decision) {
				fmt.Printf("  %2d. %s\n", i+1, line)
			}
		}
	case out.Report != nil:
		fmt.Printf("prediction: n=%d mse=%.4f accuracy=%.3f\n",
			out.Report.N, out.Report.MSE, out.Report.Accuracy)
	case out.Path != "":
		fmt.Printf("persisted model to %s\n", out.Path)
	}
}
