package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbtoaster/internal/server"
)

// host is the server under test: the stock dbtserver subprocess for
// end-to-end runs, an in-process server.Server for the traced run and the
// self-test. The harness closes every client connection before calling
// stop — Server.Close waits for open connections to drain.
type host interface {
	// start boots the workload's first query on walDir and returns the
	// bound address; recover restarts on the state walDir already holds.
	start(walDir string, recover bool) (addr string, err error)
	// stop ends the server. kill is the crash used by the recovery cycles
	// (SIGKILL for a subprocess); otherwise shutdown is requested and
	// forced after a deadline.
	stop(kill bool)
	// cpuSeconds is the CPU time the server has used since start.
	cpuSeconds() float64
	// peakRSSMiB is the server's resident high-water mark.
	peakRSSMiB() float64
}

const (
	// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
	// 100 on every Linux ABI Go runs on.
	clockTick = 100
	// bootDeadline bounds start, including a full WAL replay.
	bootDeadline = 120 * time.Second
	// stopDeadline is how long a graceful shutdown may take before the
	// subprocess is killed.
	stopDeadline = 3 * time.Second
)

// procHost runs the stock cmd/dbtserver binary.
type procHost struct {
	bin string
	w   *workload
	cmd *exec.Cmd
	// exited is closed once cmd.Wait has returned.
	exited chan struct{}
	stderr bytes.Buffer
}

func (h *procHost) start(walDir string, recover bool) (string, error) {
	args := []string{"-catalog", h.w.catalog, "-sql", h.w.queries[0].sql,
		"-addr", "127.0.0.1:0", "-wal-dir", walDir}
	if recover {
		args = append(args, "-recover")
	}
	h.stderr.Reset()
	cmd := exec.Command(h.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	cmd.Stderr = &h.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	h.cmd = cmd
	h.exited = make(chan struct{})
	addrc := make(chan string, 1)
	// One goroutine owns stdout and the Wait that must follow its EOF; it
	// ends when the process does, and stop waits on exited.
	go func() {
		defer close(h.exited)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if sent || !strings.HasPrefix(line, "dbtserver: serving ") {
				continue
			}
			// "dbtserver: serving <quoted sql> on <addr>[ (<n> shards)]"
			if i := strings.LastIndex(line, " on "); i >= 0 {
				addrc <- strings.Fields(line[i+4:])[0]
				sent = true
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: the harness kills servers
		if !sent {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			return "", fmt.Errorf("dbtserver exited before listening: %s", strings.TrimSpace(h.stderr.String()))
		}
		return addr, nil
	case <-time.After(bootDeadline):
		h.stop(true)
		return "", fmt.Errorf("dbtserver not listening after %s", bootDeadline)
	}
}

func (h *procHost) stop(kill bool) {
	if h.cmd == nil {
		return
	}
	if kill {
		_ = h.cmd.Process.Kill()
	} else {
		_ = h.cmd.Process.Signal(os.Interrupt)
		select {
		case <-h.exited:
		case <-time.After(stopDeadline):
			_ = h.cmd.Process.Kill()
		}
	}
	<-h.exited
	h.cmd = nil
}

func (h *procHost) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis: state is field 3, utime 14, stime 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTick
}

func (h *procHost) peakRSSMiB() float64 {
	return vmHWMMiB(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
}

func vmHWMMiB(statusPath string) float64 {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// inprocHost serves from this process; CPU and RSS are the harness's own
// and only there so the same driver runs against both hosts.
type inprocHost struct {
	w   *workload
	srv *server.Server
}

func (h *inprocHost) start(walDir string, recover bool) (string, error) {
	srv, err := server.NewWithOptions(h.w.queries[0].sql, h.w.cat(),
		server.Options{WALDir: walDir, Recover: recover})
	if err != nil {
		return "", err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return "", err
	}
	h.srv = srv
	return addr, nil
}

func (h *inprocHost) stop(bool) {
	if h.srv != nil {
		_ = h.srv.Close() // the WAL is unsynced by design; nothing to report
		h.srv = nil
	}
}

func (h *inprocHost) cpuSeconds() float64 { return selfCPUSeconds() }

func (h *inprocHost) peakRSSMiB() float64 { return vmHWMMiB("/proc/self/status") }

// selfCPUSeconds is the harness process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
