# One core, no peripheral: the blocking get on fsl 0 never completes,
# so the run stops on the deadlock rule (exit 4).
  get r3, rfsl0
  halt
