(* Line-for-line comparison against a checked-in file under golden/.
   On a mismatch the computed lines are written to [actual] in the
   test's working directory, so an intended change is reviewed as a
   diff and copied over. *)

let check ~golden ~actual ~what got =
  let expected =
    In_channel.with_open_text golden In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if got <> expected then begin
    Out_channel.with_open_text actual (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
    let rec first_diff = function
      | g :: gs, e :: es -> if g = e then first_diff (gs, es) else Some (e, g)
      | g :: _, [] -> Some ("<none>", g)
      | [], e :: _ -> Some (e, "<none>")
      | [], [] -> None
    in
    match first_diff (got, expected) with
    | Some (e, g) ->
      Alcotest.failf "%s moved (full text in %s)\nexpected: %s\n     got: %s"
        what actual e g
    | None -> ()
  end
