let () =
  Alcotest.run "vlogfs"
    (Test_util.suites @ Test_disk.suites @ Test_queue.suites
   @ Test_models.suites @ Test_vlog.suites
   @ Test_blockdev.suites @ Test_ufs.suites @ Test_lfs.suites
   @ Test_alloc_index.suites @ Test_vlog_extra.suites @ Test_vlfs.suites
   @ Test_crash_sweep.suites
   @ Test_fault.suites @ Test_check.suites @ Test_cell.suites @ Test_par.suites
   @ Test_workload.suites
   @ Test_experiments.suites @ Test_trace.suites @ Test_volume.suites
   @ Test_volume_faults.suites @ Test_nvm.suites)
