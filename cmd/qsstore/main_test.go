package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// as a qsstore child process (see qsstore below).
func TestMain(m *testing.M) {
	if os.Getenv("QSSTORE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// qsstore runs the command with args in a child process and returns its
// combined output and exit status.
func qsstore(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSSTORE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCrashdrillRejectsInputsThatDrillNothing: a misspelled victim, no
// seeds and a hit count below one each exit non-zero without running a
// drill, and the victim error names the valid victims.
func TestCrashdrillRejectsInputsThatDrillNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "-victim", "particpant", "-point", "2pc.prepare.after-logflush"},
		{"-seeds", "0"},
		{"-repl", "-seeds", "0"},
		{"-hit", "-1", "-point", "commit.after-logflush"},
	} {
		out, code := qsstore(t, append([]string{"crashdrill", "-dir", t.TempDir()}, args...)...)
		if code == 0 {
			t.Errorf("crashdrill %v exited 0:\n%s", args, out)
		}
		if strings.Contains(out, "held") || strings.Contains(out, "runs") {
			t.Errorf("crashdrill %v ran a drill:\n%s", args, out)
		}
	}
	if out, _ := qsstore(t, "crashdrill", "-shards", "-victim", "particpant"); !strings.Contains(out, "coord, participant") {
		t.Errorf("the victim error does not name the valid victims:\n%s", out)
	}
}

// TestCrashdrillParticipantCell: -victim participant kills shard 1 and
// labels the run so.
func TestCrashdrillParticipantCell(t *testing.T) {
	out, code := qsstore(t, "crashdrill", "-shards", "-victim", "participant",
		"-point", "2pc.prepare.after-logflush", "-dir", t.TempDir())
	if code != 0 || !strings.Contains(out, "victim=participant point=2pc.prepare.after-logflush") ||
		!strings.Contains(out, "all invariants held") {
		t.Errorf("exit %d:\n%s", code, out)
	}
}

// TestCrashdrillTallies pins the tallies of the three default sweeps. Every
// sweep is deterministic, so a moved count means a crash point stopped
// firing on its path, or fires on another.
func TestCrashdrillTallies(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "crash drill: 192 runs, 112 crashed, 0 violations"},
		{[]string{"-repl", "-seeds", "1"}, "replicated crash drill: 47 runs, 16 crashed, 47 failovers, 0 violations"},
		{[]string{"-shards"}, "sharded crash drill: 8 cells, 8 crashed, 0 violations"},
	} {
		out, code := qsstore(t, append([]string{"crashdrill", "-dir", t.TempDir()}, tc.args...)...)
		if code != 0 || !strings.Contains(out, tc.want+"\n") {
			t.Errorf("crashdrill %v: exit %d, want the tally %q:\n%s", tc.args, code, tc.want, out)
		}
	}
}
