package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/resilience"
)

// env locates the repo, the built server binaries and the scratch space of
// one bench process, and owns every child it starts.
type env struct {
	root   string // repo root: the working directory
	bin    string // <root>/.bench_build/bin
	work   string // <root>/.bench_build/run/<pid>: store dirs, removed at exit
	outDir string // <root>/bench/out: ledgers, traces, child logs

	mu       sync.Mutex
	children []*child // guarded by mu
}

// findRoot takes the working directory for the repository root, which is
// where run.sh starts the bench, provided the servers' sources are there.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(dir, "cmd", "storeserver")); err != nil {
		return "", errors.New("bench: run from the repository root (no cmd/storeserver in the working directory)")
	}
	return dir, nil
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		bin:    filepath.Join(root, ".bench_build", "bin"),
		work:   filepath.Join(root, ".bench_build", "run", fmt.Sprint(os.Getpid())),
		outDir: filepath.Join(root, "bench", "out"),
	}
	for _, d := range []string{e.bin, e.work, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildServers compiles the two shipped binaries the benchmark drives.
func (e *env) buildServers(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", e.bin+string(filepath.Separator), "./cmd/storeserver", "./cmd/brokerserver")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: building servers: %w\n%s", err, out)
	}
	return nil
}

// cleanup kills and reaps every child and removes the scratch space.
func (e *env) cleanup() {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	_ = os.RemoveAll(e.work) // best effort at exit; the next run uses another directory
}

// child is one server process.
type child struct {
	name    string // "store" or "broker"
	cmd     *exec.Cmd
	addr    string // http://127.0.0.1:port
	port    int
	logPath string
	done    chan struct{} // closed when the process has been reaped
	waitErr error         // valid after done
}

// freePort picks a port by binding and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches one server with its default flags plus listen address and
// the given extras, appends its stderr to bench/out/<logName>.log, and
// waits until /healthz answers. A port lost between release and the
// child's bind is retried once.
func (e *env) start(ctx context.Context, name, logName string, port int, extra ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if port == 0 {
			p, err := freePort()
			if err != nil {
				return nil, err
			}
			port = p
		}
		c, err := e.startOnce(ctx, name, logName, port, extra...)
		if err == nil {
			return c, nil
		}
		lastErr = err
		port = 0
	}
	return nil, lastErr
}

func (e *env) startOnce(ctx context.Context, name, logName string, port int, extra ...string) (*child, error) {
	logPath := filepath.Join(e.outDir, logName+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	listen := fmt.Sprintf("127.0.0.1:%d", port)
	c := &child{name: name, addr: "http://" + listen, port: port, logPath: logPath, done: make(chan struct{})}
	args := []string{"-listen", listen}
	if name == "store" {
		args = append(args, "-name", c.addr)
	}
	c.cmd = exec.Command(filepath.Join(e.bin, name+"server"), append(args, extra...)...)
	c.cmd.Stderr = logFile
	c.cmd.Stdout = logFile
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(c.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("bench: %s exited before becoming healthy: %v\n%s", name, c.waitErr, tail(logPath, 20))
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("bench: %s not healthy after 30s\n%s", name, tail(logPath, 20))
		}
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports an early exit, with the last log lines, as an error.
func (c *child) exited() error {
	select {
	case <-c.done:
		return fmt.Errorf("bench: %s exited early: %v\n%s", c.name, c.waitErr, tail(c.logPath, 20))
	default:
		return nil
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

// stop asks for a graceful shutdown (the store flushes its memtable) and
// falls back to SIGKILL after ten seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// tail returns the last n lines of a file.
func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func fileBytes(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// wire counts the body bytes of one client's requests and responses.
type wire struct {
	base           http.RoundTripper
	sent, received atomic.Int64
}

func (w *wire) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		w.sent.Add(r.ContentLength)
	}
	resp, err := w.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, n: &w.received}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// noRetry makes a shed or failed request one failed op instead of a
// multi-second retry sequence.
var noRetry = &resilience.Policy{MaxAttempts: 1}

// newStoreClient returns a client with its own single connection to the
// store, and the byte counter on that connection.
func newStoreClient(addr string) (*httpapi.StoreClient, *wire) {
	w := &wire{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return &httpapi.StoreClient{
		BaseURL: addr,
		HTTP:    &http.Client{Transport: w, Timeout: 60 * time.Second},
		Retry:   noRetry,
	}, w
}

func newBrokerClient(addr string) *httpapi.BrokerClient {
	return &httpapi.BrokerClient{
		BaseURL: addr,
		HTTP:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 60 * time.Second},
		Retry:   noRetry,
	}
}

// httpGet fetches one of a server's plain GET endpoints.
func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// isShed reports whether err is the store's 429 admission rejection.
func isShed(err error) bool {
	var se *resilience.StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// redirectStderr points descriptor 2 at a file until restore is called. The
// repo's HTTP handlers log every request to the process's standard error;
// when they run inside the bench that goes to a file, as the servers' does.
func redirectStderr(path string) (restore func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close() // descriptor 2 keeps the file open
	saved, err := syscall.Dup(2)
	if err != nil {
		return nil, err
	}
	if err := syscall.Dup3(int(f.Fd()), 2, 0); err != nil {
		syscall.Close(saved)
		return nil, err
	}
	return func() {
		_ = syscall.Dup3(saved, 2, 0) // a descriptor that was valid a moment ago
		syscall.Close(saved)
	}, nil
}
