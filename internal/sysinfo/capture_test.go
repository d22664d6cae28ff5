package sysinfo

import (
	"runtime"
	"testing"
)

func TestCapture(t *testing.T) {
	hw, sw, err := Capture()
	if err != nil {
		t.Fatal(err)
	}
	if hw.CPUModel == "" {
		t.Error("capture should always produce some CPU description")
	}
	if sw.OS != runtime.GOOS {
		t.Errorf("OS = %q", sw.OS)
	}
	if sw.Compiler == "" || sw.Flags == "" {
		t.Error("software spec incomplete")
	}
}
