//go:build race

package mapreduce

const raceEnabled = true
