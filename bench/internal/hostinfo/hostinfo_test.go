package hostinfo

import "testing"

func TestCheckProcsRefusesOversubscription(t *testing.T) {
	if err := (Host{NProc: 2, GOMAXPROCS: 2}).CheckProcs(); err != nil {
		t.Errorf("GOMAXPROCS = nproc refused: %v", err)
	}
	if err := (Host{NProc: 2, GOMAXPROCS: 4}).CheckProcs(); err == nil {
		t.Error("GOMAXPROCS 4 on 2 CPUs accepted")
	}
}

func TestDescribeAndUsage(t *testing.T) {
	h := Describe()
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.CPUModel == "" {
		t.Errorf("incomplete host block: %+v", h)
	}
	a := ReadUsage()
	sink = make([]byte, 1<<20)
	b := ReadUsage()
	if b.AllocBytes-a.AllocBytes < 1<<20 || b.Mallocs <= a.Mallocs {
		t.Errorf("usage did not advance over a 1 MiB allocation: %+v then %+v", a, b)
	}
	if CPUNs() <= 0 {
		t.Error("CPU time is not positive")
	}
	if PeakRSSMB() <= 0 {
		t.Error("peak RSS is not positive")
	}
}

var sink []byte
