(* Millipage itself, configured with one view and page-grain minipages. *)
include Mp_dsm.Millipage_impl

let name = "ivy"

let create engine ~hosts ?(object_size = 16 * 1024 * 1024)
    ?(polling = Mp_net.Polling.nt_mode) ?(seed = 1) () =
  let config =
    {
      Mp_millipage.Dsm.Config.default with
      views = 1;
      chunking = Mp_multiview.Allocator.Page_grain;
      object_size;
      polling;
      seed;
    }
  in
  Mp_millipage.Dsm.create engine ~hosts ~config ()
