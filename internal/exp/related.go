package exp

import (
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "table3", Title: "Table III: related-work feature comparison", run: table3})
}

// table3 reproduces the related-work comparison matrix (Section VI): which
// technologies, circuit features, and application-aware evaluations each
// tool covers. The NVMExplorer column reflects what this reproduction
// actually implements.
func table3(*nvsim.Engine) (*Result, error) {
	t := viz.NewTable("Table III: NVMExplorer vs related tools",
		"Feature", "IRDS", "Mem.Trends", "NVSim", "DESTINY", "NeuroSim+",
		"NVMain", "DeepNVM++", "NVMExplorer")
	rows := [][]any{
		{"RRAM", "y", "y", "y", "y", "y", "y", "", "y"},
		{"STT", "y", "y", "y", "y", "", "y", "y", "y"},
		{"SOT", "y", "", "", "", "", "", "y", "y"},
		{"PCM", "y", "y", "y", "y", "", "y", "", "y"},
		{"CTT", "", "", "", "", "", "", "", "y"},
		{"FeRAM", "y", "y", "", "", "", "", "", "y"},
		{"FeFET", "y", "y", "", "", "", "", "", "y"},
		{"MLC", "", "", "", "", "y", "", "", "y"},
		{"Fault modeling", "", "", "", "", "y", "", "", "y"},
		{"Arch simulator / use case", "-", "-", "-", "-", "PIM for DNNs",
			"gem5", "GPGPU-sim for DNNs", "Analytical; CPU, GPU, accelerator"},
		{"App accuracy", "", "", "", "", "y", "", "", "y"},
		{"Memory lifetime", "", "", "", "", "", "", "y", "y"},
		{"Operating power", "", "", "y", "y", "", "", "y", "y"},
		{"Latency", "", "", "y", "y", "", "", "y", "y"},
	}
	for _, r := range rows {
		t.MustAddRow(r...)
	}
	return table(t), nil
}
