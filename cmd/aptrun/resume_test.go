package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Process-level fault-tolerance smoke: build the real binary, run a
// 2-rank job to completion, run it again but crash both ranks after
// epoch 2, resume from the snapshot, and require the resumed job's
// parameter checksums to equal the uninterrupted run's — the whole
// crash-recovery path, across OS processes, bit-for-bit. The same
// flags without -rank (every device in one process) must land on the
// same checksum, uninterrupted and across a crash and resume.

var checksumRe = regexp.MustCompile(`params fnv64a ([0-9a-f]{16})`)

// buildWorker compiles the aptrun binary once per test run.
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aptrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a distinct loopback port for one job's rendezvous.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// jobFlags are the task flags every run of the test shares.
func jobFlags(world int) []string {
	return []string{
		"-devices", fmt.Sprint(world),
		"-data", "PS", "-scale", "0.05", "-hidden", "8", "-fanout", "5",
		"-batch", "64", "-epochs", "4", "-strategy", "GDP",
	}
}

// gatTwinFlags are the GAT/SNP twin recipe's task flags. Attention
// cannot pre-sum, so each rank's SNP request to a peer carries the
// sources it needs projected and no adjacency.
func gatTwinFlags(world int) []string {
	return []string{
		"-devices", fmt.Sprint(world),
		"-data", "IM", "-scale", "0.05", "-model", "gat", "-hidden", "8", "-heads", "4",
		"-fanout", "5", "-batch", "64", "-epochs", "2", "-strategy", "SNP",
	}
}

// procDeadline bounds every spawned process: a hung rank is killed and
// its test fails instead of stalling the suite.
const procDeadline = 2 * time.Minute

// run executes the binary once, with env added to the test's own
// environment, and returns its combined output plus exit code.
func run(bin string, env []string, args ...string) (string, int) {
	ctx, cancel := context.WithTimeout(context.Background(), procDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return string(out) + "\nkilled after " + procDeadline.String(), -1
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		return string(out) + "\nexec: " + err.Error(), -1
	}
	return string(out), 0
}

// runJob launches one rank per process with shared flags and returns
// each rank's combined output plus exit code.
func runJob(t *testing.T, bin string, world int, extra ...string) (outs []string, codes []int) {
	t.Helper()
	return runJobEnv(t, bin, jobFlags, make([][]string, world), extra...)
}

// runJobEnv is runJob over the task flags job(world), with one process
// per entry of envs, rank r running with envs[r] added to its
// environment.
func runJobEnv(t *testing.T, bin string, job func(world int) []string, envs [][]string, extra ...string) (outs []string, codes []int) {
	t.Helper()
	world := len(envs)
	outs = make([]string, world)
	codes = make([]int, world)
	shared := append(job(world), "-coord", freeAddr(t))
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := append([]string{"-rank", fmt.Sprint(r)}, shared...)
			outs[r], codes[r] = run(bin, envs[r], append(args, extra...)...)
		}(r)
	}
	wg.Wait()
	return outs, codes
}

// checksums extracts the per-rank parameter checksum lines.
func checksums(t *testing.T, outs []string) []string {
	t.Helper()
	sums := make([]string, len(outs))
	for r, out := range outs {
		m := checksumRe.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("rank %d printed no checksum:\n%s", r, out)
		}
		sums[r] = m[1]
	}
	return sums
}

func TestCrashAndResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildWorker(t)
	dir := t.TempDir()

	// Uninterrupted baseline.
	outs, codes := runJob(t, bin, 2)
	for r, c := range codes {
		if c != 0 {
			t.Fatalf("baseline rank %d exited %d:\n%s", r, c, outs[r])
		}
	}
	want := checksums(t, outs)
	if want[0] != want[1] {
		t.Fatalf("baseline ranks disagree: %s vs %s", want[0], want[1])
	}
	for r, out := range outs {
		wantEpochs(t, fmt.Sprintf("baseline rank %d", r), out, 1, 2, 3, 4)
	}

	// Same job, crashing both ranks after epoch 2. The collective
	// snapshot is a barrier, so both reach the simulated crash.
	outs, codes = runJob(t, bin, 2, "-ckpt-dir", dir, "-die-after", "2")
	for r, c := range codes {
		if c != 3 {
			t.Fatalf("crash-run rank %d exited %d, want 3:\n%s", r, c, outs[r])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.aptc")); err != nil {
		t.Fatalf("crash run left no snapshot: %v", err)
	}

	// Relaunch with -resume: must finish the remaining epochs and land
	// on exactly the baseline parameters.
	outs, codes = runJob(t, bin, 2, "-ckpt-dir", dir, "-resume")
	for r, c := range codes {
		if c != 0 {
			t.Fatalf("resumed rank %d exited %d:\n%s", r, c, outs[r])
		}
		if !strings.Contains(outs[r], "resuming from") {
			t.Fatalf("rank %d did not take the resume path:\n%s", r, outs[r])
		}
		// A resumed run continues the interrupted one's numbering.
		wantEpochs(t, fmt.Sprintf("resumed rank %d", r), outs[r], 3, 4)
	}
	got := checksums(t, outs)
	for r := range got {
		if got[r] != want[r] {
			t.Errorf("rank %d: resumed checksum %s != baseline %s", r, got[r], want[r])
		}
	}

	// The same flags with every device in one process: the same
	// parameters, uninterrupted ...
	out, code := run(bin, nil, jobFlags(2)...)
	if code != 0 {
		t.Fatalf("in-process run exited %d:\n%s", code, out)
	}
	if got := checksums(t, []string{out})[0]; got != want[0] {
		t.Errorf("in-process checksum %s != 2-rank baseline %s", got, want[0])
	}
	// ... and across a crash after epoch 2 and a resume.
	dir1 := t.TempDir()
	if out, code = run(bin, nil, append(jobFlags(2), "-ckpt-dir", dir1, "-die-after", "2")...); code != 3 {
		t.Fatalf("in-process crash run exited %d, want 3:\n%s", code, out)
	}
	// A resume that keeps -die-after 2 trains one more epoch before it
	// crashes again, and a second resume still lands on the baseline.
	dir2 := t.TempDir()
	snap, err := os.ReadFile(filepath.Join(dir1, "snapshot.aptc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "snapshot.aptc"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(bin, nil, append(jobFlags(2), "-ckpt-dir", dir2, "-resume", "-die-after", "2")...)
	if code != 3 || !strings.Contains(out, "simulated crash after epoch 3") {
		t.Fatalf("resume with -die-after 2: exit %d, want 3 after epoch 3:\n%s", code, out)
	}
	wantEpochs(t, "resume with -die-after 2", out, 3)
	out, code = run(bin, nil, append(jobFlags(2), "-ckpt-dir", dir2, "-resume")...)
	if code != 0 {
		t.Fatalf("second resume exited %d:\n%s", code, out)
	}
	wantEpochs(t, "second resume", out, 4)
	if got := checksums(t, []string{out})[0]; got != want[0] {
		t.Errorf("twice-resumed checksum %s != baseline %s", got, want[0])
	}
	out, code = run(bin, nil, append(jobFlags(2), "-ckpt-dir", dir1, "-resume")...)
	if code != 0 || !strings.Contains(out, "resuming from") {
		t.Fatalf("in-process resume exited %d:\n%s", code, out)
	}
	if got := checksums(t, []string{out})[0]; got != want[0] {
		t.Errorf("in-process resumed checksum %s != baseline %s", got, want[0])
	}
	wantEpochs(t, "in-process resumed run", out, 3, 4)

	// The final snapshot is the rolling one in -ckpt-dir; there is no
	// second path to write it.
	if out, code := run(bin, nil, "-save", filepath.Join(dir1, "final.aptc")); code != 2 {
		t.Errorf("aptrun -save: exit %d, want 2 (unknown flag):\n%s", code, out)
	}
}

var epochLineRe = regexp.MustCompile(`(?m)^(?:\[rank \d+\] )?epoch +(\d+) .*$`)

var wallRe = regexp.MustCompile(`^(?:\[rank \d+\] )?epoch +\d+  sim [0-9.]+s  wall [0-9.]+s  `)

// wantEpochs requires out's epoch lines to be numbered exactly want, in
// order, each carrying its wall-clock figure beside the simulated one.
func wantEpochs(t *testing.T, what, out string, want ...int) {
	t.Helper()
	var got []int
	for _, m := range epochLineRe.FindAllStringSubmatch(out, -1) {
		if !wallRe.MatchString(m[0]) {
			t.Errorf("%s: epoch line without a wall figure: %q", what, m[0])
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s printed epochs %v, want %v:\n%s", what, got, want, out)
	}
}

// TestMixedCoreRanksBitIdentical: trained bits do not depend on the
// host's core count. The ranks of one job run at GOMAXPROCS 1 and 3 —
// two hosts of different sizes — and the in-process run at the
// default, and all three print one parameter checksum, for the
// SAGE/GDP recipe and for the GAT/SNP twin.
func TestMixedCoreRanksBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildWorker(t)
	for _, tc := range []struct {
		name string
		job  func(world int) []string
	}{
		{"sage-gdp", jobFlags},
		{"gat-snp", gatTwinFlags},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs, codes := runJobEnv(t, bin, tc.job, [][]string{{"GOMAXPROCS=1"}, {"GOMAXPROCS=3"}})
			for r, c := range codes {
				if c != 0 {
					t.Fatalf("rank %d exited %d:\n%s", r, c, outs[r])
				}
			}
			out, code := run(bin, nil, tc.job(2)...)
			if code != 0 {
				t.Fatalf("in-process run exited %d:\n%s", code, out)
			}
			sums := checksums(t, append(outs, out))
			if sums[0] != sums[1] || sums[1] != sums[2] {
				t.Errorf("checksums differ: rank 0 at GOMAXPROCS=1 %s, rank 1 at GOMAXPROCS=3 %s, in-process %s", sums[0], sums[1], sums[2])
			}
		})
	}
}

// TestRejectedFlagCombinations: combinations that cannot work exit 2
// with a one-line reason at flag validation — before the dataset is
// built and without touching the network.
func TestRejectedFlagCombinations(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildWorker(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rank", "0"}, "-rank needs -coord"},
		{[]string{"-rank", "2", "-devices", "2", "-coord", "127.0.0.1:1"}, "-rank 2 outside [0, -devices 2)"},
		{[]string{"-rank", "-2"}, "-rank -2 outside"},
		{[]string{"-coord", "127.0.0.1:1"}, "give -rank"},
		{[]string{"-measure-wire"}, "give -rank"},
		{[]string{"-resume"}, "-resume requires -ckpt-dir"},
	} {
		out, code := run(bin, nil, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("aptrun %v: exit %d, output %q; want exit 2 and one line containing %q",
				tc.args, code, out, tc.want)
		}
	}
}

var simRe = regexp.MustCompile(`epoch +\d+  sim ([0-9.]+)s`)

// epochSims extracts each epoch's simulated seconds, in epoch order.
func epochSims(t *testing.T, out string) []float64 {
	t.Helper()
	var sims []float64
	for _, m := range simRe.FindAllStringSubmatch(out, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, v)
	}
	if len(sims) == 0 {
		t.Fatalf("no epoch lines in output:\n%s", out)
	}
	return sims
}

// TestSimulateRanksMatchInProcess: accounting mode runs per rank too. A
// rank drives only its own device, so the job's simulated epoch time is
// the maximum over the ranks' — and that must equal the in-process
// run's, epoch by epoch, for every strategy.
func TestSimulateRanksMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildWorker(t)
	for _, k := range []string{"GDP", "NFP", "SNP", "DNP"} {
		flags := append(jobFlags(2), "-simulate", "-epochs", "2", "-strategy", k)
		outs, codes := runJob(t, bin, 2, flags...)
		for r, c := range codes {
			if c != 0 {
				t.Fatalf("%s: rank %d exited %d:\n%s", k, r, c, outs[r])
			}
		}
		out, code := run(bin, nil, flags...)
		if code != 0 {
			t.Fatalf("%s: in-process run exited %d:\n%s", k, code, out)
		}
		want := epochSims(t, out)
		got := make([]float64, len(want))
		for r := range outs {
			sims := epochSims(t, outs[r])
			if len(sims) != len(want) {
				t.Fatalf("%s: rank %d ran %d epochs, in-process %d", k, r, len(sims), len(want))
			}
			for ep, v := range sims {
				got[ep] = max(got[ep], v)
			}
		}
		for ep := range want {
			if got[ep] != want[ep] {
				t.Errorf("%s epoch %d: max rank sim %gs != in-process %gs", k, ep+1, got[ep], want[ep])
			}
		}
	}
}
