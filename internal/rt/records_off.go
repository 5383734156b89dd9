//go:build !slowcount

package rt

// CountRecords reports whether this build counts the records the slow loop
// dispatches (see Machine.SlowRecords). Only a build with the slowcount tag
// does; everywhere else the count compiles away.
const CountRecords = false
