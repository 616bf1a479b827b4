//go:build forcesplit

package eventsim

// Every window with two or more workers splits, however light: make ci's -race steps.
func init() { minSplitEvents = 0 }
