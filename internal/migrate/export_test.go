package migrate

// CheckAgainstOracle exposes the clone-per-step replay oracle to the
// external test package, which drives it over full evaluation markets.
var CheckAgainstOracle = checkAgainstOracle
