package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0, "J", "0J"},
		{2.5e-9, "J", "2.5nJ"},
		{1.234e-12, "J", "1.23pJ"},
		{3.2e6, "W", "3.2MW"},
		{1, "s", "1s"},
		{-4.2e-3, "W", "-4.2mW"},
		{42e3, "B/s", "42kB/s"},
	}
	for _, c := range cases {
		if got := SI(c.v, c.unit); got != c.want {
			t.Errorf("SI(%g,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestSINonFinite(t *testing.T) {
	if got := SI(math.NaN(), "J"); got != "NaNJ" {
		t.Errorf("SI(NaN) = %q", got)
	}
	if got := SI(math.Inf(1), "J"); got != "+InfJ" {
		t.Errorf("SI(+Inf) = %q", got)
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2 * KiB, "2KiB"},
		{2 * MiB, "2MiB"},
		{16 * MiB, "16MiB"},
		{3 * GiB, "3GiB"},
		{1536, "1.50KiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestTimeEnergyPowerFormatting(t *testing.T) {
	if got := NSToString(12500); got != "12.5µs" {
		t.Errorf("NSToString(12500) = %q", got)
	}
	if got := PJToString(2500); got != "2.5nJ" {
		t.Errorf("PJToString(2500) = %q", got)
	}
	if got := MWToString(3100); got != "3.1W" {
		t.Errorf("MWToString(3100) = %q", got)
	}
}

func TestMbPerMM2(t *testing.T) {
	// 2 MiB in 1 mm²: 2*2^20*8 bits = 16.777 Mb.
	got := MbPerMM2(2*MiB, 1.0)
	if math.Abs(got-16.777216) > 1e-6 {
		t.Errorf("MbPerMM2 = %v", got)
	}
	if MbPerMM2(MiB, 0) != 0 {
		t.Error("zero area should yield zero density")
	}
	if MbPerMM2(MiB, -1) != 0 {
		t.Error("negative area should yield zero density")
	}
}

// Property: SI never returns an empty string and always embeds the unit.
func TestSIProperty(t *testing.T) {
	f := func(v float64) bool {
		s := SI(v, "X")
		return len(s) > 0 && s[len(s)-1] == 'X'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
